// Binary layout of a durable shard's journal records and snapshots,
// built from the internal/codec primitives the wire transport uses (see
// that package for uvarint / str / bytes / time). Every record is the
// payload of one internal/journal frame; a snapshot is the whole
// <key>.snap.N object.
//
//	record = op(1) || str(queue) || fields(1) || present fields, in bit order
//
//	bit  field     encoding                      ops that set it
//	 0   T         time                          recv, vis
//	 1   NextID    uvarint                       send
//	 2   IDs       uvarint(n) || n × after       send, recv, del, vis
//	 3   Bodies    uvarint(n) || n × bytes       send
//	 4   Recvs     uvarint(n) || n × uvarint     send (transfers only)
//	 5   (retired: receipts, which the fold computes; a record setting it is corrupt)
//	 6   Vis       uvarint(n) || n × time        recv, vis
//	 7   Dup       uvarint(n) || n × (0|1)       recv
//
//	after = uvarint(k) || str(rest)    the string is prev[:k] + rest
//
// A field is present iff it is non-zero / non-empty — what omitempty did
// for the JSON records this replaced — and bodies are raw bytes. Ids are
// front-coded ("after") against the id before them, the first against
// the queue name. A message id is its queue's name plus a sequence
// number, so a few bytes of suffix stand for the whole name; strings that
// share nothing cost one byte more than str. op is one of the durOp
// values; an op this build does not know (a record from a newer writer)
// is refused like any other damage.
//
//	snapshot = version(1)=2 || uvarint(lastID) || uvarint(n) || n × queue
//	queue    = str(name) || msgs(visible) || msgs(inflight)
//	msgs     = uvarint(n) || n × msg
//	msg      = after(id) || bytes(body) || uvarint(receives) || delivered(0|1) || time(visAt)
//
// In a snapshot an id is coded against the id before it in its list (the
// first against the queue name). lastID is the service's id sequence.
//
// Decoding is strict — leftover bytes, a flag byte neither 0 nor 1, an
// unknown op or snapshot version are all corrupt — and decoded bodies
// alias the input: the fold copies what it keeps.
package queue

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/journal"
)

// durOp names a journaled operation: one byte on disk, its name in
// messages and DumpJournal output.
type durOp byte

const (
	opGenesis durOp = iota + 1
	opCreateQueue
	opDeleteQueue
	opSend
	opReceive
	opDelete
	opVisibility
	opPurge
	opEnd // one past the last valid op
)

var durOpNames = [opEnd]string{
	opGenesis: "genesis", opCreateQueue: "create", opDeleteQueue: "delq", opSend: "send",
	opReceive: "recv", opDelete: "del", opVisibility: "vis", opPurge: "purge",
}

func (o durOp) String() string {
	if o == 0 || o >= opEnd {
		return fmt.Sprintf("op(%d)", byte(o))
	}
	return durOpNames[o]
}

// MarshalText renders the op by name in DumpJournal's JSON.
func (o durOp) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// Field-presence bits of a record, in encoding order.
const (
	hasT = 1 << iota
	hasNextID
	hasIDs
	hasBodies
	hasRecvs
	hasRetired
	hasVis
	hasDup
)

// snapVersion is the first byte of every snapshot object.
const snapVersion = 2

// appendAfter appends s front-coded against prev: the length of their
// common prefix, then the rest of s.
func appendAfter(e *codec.Enc, prev, s string) {
	k := 0
	for k < len(prev) && k < len(s) && prev[k] == s[k] {
		k++
	}
	e.U64(uint64(k))
	e.Str(s[k:])
}

// readAfter reads a string front-coded against prev.
func readAfter(d *codec.Dec, prev string) string {
	k, rest := d.U64(), d.Bytes()
	if k > uint64(len(prev)) {
		d.Fail()
		return ""
	}
	return prev[:k] + string(rest)
}

// AppendTo implements journal.Record.
func (r *durRecord) AppendTo(dst []byte) []byte {
	e := codec.Enc{B: dst}
	e.Byte(byte(r.Op))
	e.Str(r.Q)
	fields := len(e.B)
	e.Byte(0)
	var has byte
	if !r.T.IsZero() {
		has |= hasT
		e.Time(r.T)
	}
	if r.NextID != 0 {
		has |= hasNextID
		e.U64(uint64(r.NextID))
	}
	if len(r.IDs) > 0 {
		has |= hasIDs
		e.U64(uint64(len(r.IDs)))
		prev := r.Q
		for _, id := range r.IDs {
			appendAfter(&e, prev, id)
			prev = id
		}
	}
	if len(r.Bodies) > 0 {
		has |= hasBodies
		e.U64(uint64(len(r.Bodies)))
		for _, b := range r.Bodies {
			e.Bytes(b)
		}
	}
	if len(r.Recvs) > 0 {
		has |= hasRecvs
		e.U64(uint64(len(r.Recvs)))
		for _, n := range r.Recvs {
			e.U64(uint64(n))
		}
	}
	if len(r.Vis) > 0 {
		has |= hasVis
		e.U64(uint64(len(r.Vis)))
		for _, t := range r.Vis {
			e.Time(t)
		}
	}
	if len(r.Dup) > 0 {
		has |= hasDup
		e.U64(uint64(len(r.Dup)))
		for _, dup := range r.Dup {
			appendBool(&e, dup)
		}
	}
	e.B[fields] = has
	return e.B
}

// appendBool and readBool code a flag as one byte, 0 or 1.
func appendBool(e *codec.Enc, b bool) {
	var c byte
	if b {
		c = 1
	}
	e.Byte(c)
}

func readBool(d *codec.Dec) bool {
	c := d.Byte()
	if c > 1 {
		d.Fail()
	}
	return c == 1
}

// corrupt wraps a payload that is well framed but does not decode, so
// callers match it exactly like a framing error.
func corrupt(what string, err error) error {
	return fmt.Errorf("%w: %s: %v", journal.ErrCorrupt, what, err)
}

// count reads a list length whose elements are at least size bytes
// each, so a declared count can never size an allocation beyond the
// input that has to back it.
func count(d *codec.Dec, size int) int {
	n := d.Len()
	if n > len(d.B)/size {
		d.Fail()
		return 0
	}
	return n
}

// decode replaces r's contents with the record in b, reusing r's slices
// so a fold over many records allocates only what it keeps (the id
// strings). Absent lists come back empty, not nil.
func (r *durRecord) decode(b []byte) error {
	d := codec.Dec{B: b}
	op, q := durOp(d.Byte()), d.Str()
	r.reset(op, q)
	has := d.Byte()
	if has&hasRetired != 0 {
		return fmt.Errorf("retired field bit 5 (receipts) set")
	}
	if has&hasT != 0 {
		r.T = d.Time()
	}
	if has&hasNextID != 0 {
		r.NextID = int(d.U64())
	}
	if has&hasIDs != 0 {
		prev := r.Q
		for n := count(&d, 2); n > 0; n-- {
			prev = readAfter(&d, prev)
			r.IDs = append(r.IDs, prev)
		}
	}
	if has&hasBodies != 0 {
		for n := count(&d, 1); n > 0; n-- {
			r.Bodies = append(r.Bodies, d.Bytes())
		}
	}
	if has&hasRecvs != 0 {
		for n := count(&d, 1); n > 0; n-- {
			r.Recvs = append(r.Recvs, int(d.U64()))
		}
	}
	if has&hasVis != 0 {
		for n := count(&d, 8); n > 0; n-- {
			r.Vis = append(r.Vis, d.Time())
		}
	}
	if has&hasDup != 0 {
		for n := count(&d, 1); n > 0; n-- {
			r.Dup = append(r.Dup, readBool(&d))
		}
	}
	if d.Err != nil {
		return d.Err
	}
	if len(d.B) != 0 {
		return fmt.Errorf("%d bytes after the last field", len(d.B))
	}
	if r.Op == 0 || r.Op >= opEnd {
		return fmt.Errorf("unknown op %d", byte(r.Op))
	}
	return nil
}

// appendMsgs encodes one of queue's message lists.
func appendMsgs(e *codec.Enc, queue string, msgs []durMsg) {
	e.U64(uint64(len(msgs)))
	prev := queue
	for i := range msgs {
		m := &msgs[i]
		appendAfter(e, prev, m.ID)
		e.Bytes(m.Body)
		e.U64(uint64(m.Receives))
		appendBool(e, m.Delivered)
		e.Time(m.VisAt)
		prev = m.ID
	}
}

// msgMinBytes is the shortest encoded msg: an empty front-coded id, an
// empty body, a one-byte count, the delivered byte, and a time.
const msgMinBytes = 2 + 1 + 1 + 1 + 8

func readMsgs(d *codec.Dec, queue string) []durMsg {
	n := count(d, msgMinBytes)
	if n == 0 {
		return nil
	}
	msgs := make([]durMsg, 0, n)
	prev := queue
	for ; n > 0 && d.Err == nil; n-- {
		m := durMsg{ID: readAfter(d, prev), Body: d.Bytes(), Receives: int(d.U64())}
		m.Delivered, m.VisAt = readBool(d), d.Time()
		msgs = append(msgs, m)
		prev = m.ID
	}
	return msgs
}

// appendTo appends the snapshot's encoding to dst.
func (s *durSnapshot) appendTo(dst []byte) []byte {
	e := codec.Enc{B: dst}
	e.Byte(snapVersion)
	e.U64(uint64(s.LastID))
	e.U64(uint64(len(s.Queues)))
	for i := range s.Queues {
		q := &s.Queues[i]
		e.Str(q.Name)
		appendMsgs(&e, q.Name, q.Visible)
		appendMsgs(&e, q.Name, q.Inflight)
	}
	return e.B
}

func decodeSnapshot(b []byte) (*durSnapshot, error) {
	d := codec.Dec{B: b}
	if v := d.Byte(); d.Err == nil && v != snapVersion {
		return nil, fmt.Errorf("snapshot version %d, this build reads %d", v, snapVersion)
	}
	s := &durSnapshot{LastID: int(d.U64())}
	// The shortest queue is an empty name and two empty lists.
	for n := count(&d, 3); n > 0 && d.Err == nil; n-- {
		q := durQueue{Name: d.Str()}
		q.Visible, q.Inflight = readMsgs(&d, q.Name), readMsgs(&d, q.Name)
		s.Queues = append(s.Queues, q)
	}
	if d.Err != nil {
		return nil, d.Err
	}
	if len(d.B) != 0 {
		return nil, fmt.Errorf("%d bytes after the last queue", len(d.B))
	}
	return s, nil
}
