package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/journal"
)

// timesEqual is the equality the codec preserves: the same instant (or
// both zero), not the same wall/monotonic representation.
func timesEqual(a, b time.Time) bool { return a.Equal(b) && a.IsZero() == b.IsZero() }

// recordsEqual compares records as the fold reads them: an empty list
// and an absent one are the same thing.
func recordsEqual(a, b *durRecord) bool {
	return a.Op == b.Op && a.Q == b.Q && timesEqual(a.T, b.T) && a.NextID == b.NextID &&
		slices.Equal(a.IDs, b.IDs) && slices.EqualFunc(a.Bodies, b.Bodies, bytes.Equal) &&
		slices.Equal(a.Recvs, b.Recvs) &&
		slices.EqualFunc(a.Vis, b.Vis, timesEqual) && slices.Equal(a.Dup, b.Dup)
}

// sampleRecords is one record of every op as the Service builds them,
// with the bodies the line format could not carry raw.
func sampleRecords() []*durRecord {
	at := time.Unix(1_700_000_000, 123_456_789)
	return []*durRecord{
		{Op: opGenesis},
		{Op: opCreateQueue, Q: "job-1/tasks"},
		{Op: opDeleteQueue, Q: "job-1/tasks"},
		{Op: opSend, Q: "q", IDs: []string{"q-1", "q-2", "q-3", "q-4"}, NextID: 4,
			Bodies: [][]byte{[]byte("plain"), {}, []byte("\n"), []byte("!{\"seq\":3}\n")}},
		{Op: opSend, Q: "q", IDs: []string{"q-5", "q-6"}, NextID: 6,
			Bodies: [][]byte{{0x01, 0x00}, []byte("moved")}, Recvs: []int{0, 7}},
		{Op: opReceive, Q: "q", T: at, IDs: []string{"q-1", "q-2"},
			Vis: []time.Time{at.Add(time.Minute), {}}, Dup: []bool{false, true}},
		{Op: opDelete, Q: "q", IDs: []string{"q-1"}},
		{Op: opVisibility, Q: "q", T: at, IDs: []string{"q-2"}, Vis: []time.Time{at.Add(time.Nanosecond)}},
		{Op: opPurge, Q: "q"},
	}
}

func TestDurRecordRoundTrip(t *testing.T) {
	var got durRecord // reused across records, as the fold does
	for _, want := range sampleRecords() {
		enc := want.AppendTo(nil)
		if err := got.decode(enc); err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		if !recordsEqual(&got, want) {
			t.Errorf("%v: decode(encode(r)) = %+v, want %+v", want.Op, got, *want)
		}
		if again := got.AppendTo(nil); !bytes.Equal(again, enc) {
			t.Errorf("%v: re-encoding differs: %x vs %x", want.Op, again, enc)
		}
		// Strict: a truncated record or one with a byte to spare is corrupt.
		if err := got.decode(enc[:len(enc)-1]); err == nil {
			t.Errorf("%v: truncated record decoded", want.Op)
		}
		if err := got.decode(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Errorf("%v: record with a trailing byte decoded", want.Op)
		}
	}
	for _, bad := range [][]byte{
		{0, 0, 0},                                               // op 0
		{byte(opEnd), 0, 0},                                     // an op this build does not know
		{byte(opReceive), 0, hasDup, 1, 2},                      // a Dup that is neither 0 nor 1
		{byte(opReceive), 0, hasRetired, 1, 0, 0},               // a receipt list, retired field bit 5
		{byte(opSend), 0, hasIDs, 0xff, 0xff, 0xff, 0xff, 0x0f}, // length bomb
		{byte(opReceive), 0, hasVis, 3, 0, 0, 0, 0, 0, 0, 0, 0}, // 3 times claimed, bytes for 1
	} {
		if err := got.decode(bad); err == nil {
			t.Errorf("decode(%x) accepted", bad)
		}
	}
}

// FuzzDurRecord: a record built from arbitrary field values survives
// encode → decode → encode exactly, and arbitrary bytes either decode to
// a record that re-encodes to a decodable equal or are refused — never a
// panic, never a list sized by a count the input cannot back.
func FuzzDurRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(r.AppendTo(nil), byte(r.Op), r.Q, int64(0), []byte("body"), 2)
	}
	f.Add([]byte{}, byte(opSend), "q", int64(1_700_000_000_000_000_000), []byte("\n"), 0)
	f.Add([]byte{byte(opReceive), 0, 0xff}, byte(opReceive), "", int64(-1), []byte("!"), 3)
	f.Add([]byte{byte(opReceive), 0, hasRetired | hasIDs, 1, 1, 1, '1', 1, 0, 1, '#', 'r', '1'}, byte(opReceive), "q", int64(1), []byte{}, 1)
	f.Fuzz(func(t *testing.T, raw []byte, op byte, q string, ns int64, body []byte, n int) {
		var got durRecord
		if err := got.decode(raw); err == nil {
			if len(got.IDs)+len(got.Bodies)+len(got.Recvs)+len(got.Vis)+len(got.Dup) > len(raw) {
				t.Fatalf("decode(%x) built lists longer than its input", raw)
			}
			var again durRecord
			if err := again.decode(got.AppendTo(nil)); err != nil || !recordsEqual(&again, &got) {
				t.Fatalf("decode(%x) = %+v does not survive re-encoding: %+v (err %v)", raw, got, again, err)
			}
		}

		// A well-shaped record with fuzzed contents. Times span the zero
		// value and both signs of UnixNano (halved: the leases added below
		// must stay inside its range).
		n = min(max(n, 0), 2*MaxBatch)
		want := &durRecord{Op: durOp(op%byte(opEnd-1)) + 1, Q: q, NextID: n}
		base := time.Unix(0, ns/2)
		if ns != 0 {
			want.T = base
		}
		for i := 0; i < n; i++ {
			want.IDs = append(want.IDs, fmt.Sprintf("%s-%d", q, i))
			want.Bodies = append(want.Bodies, body[:len(body)*i/n])
			want.Recvs = append(want.Recvs, i)
			vis := time.Time{}
			if i%3 != 0 {
				vis = base.Add(time.Duration(i))
			}
			want.Vis = append(want.Vis, vis)
			want.Dup = append(want.Dup, i%2 == 1)
		}
		enc := want.AppendTo(nil)
		if err := got.decode(enc); err != nil || !recordsEqual(&got, want) {
			t.Fatalf("decode(encode(%+v)) = %+v (err %v)", *want, got, err)
		}
	})
}

// sampleSnapshot holds an empty queue, a transferred-in message never
// delivered here, and visible and in-flight messages that were.
func sampleSnapshot() *durSnapshot {
	at := time.Unix(1_700_000_000, 999)
	return &durSnapshot{LastID: 12, Queues: []durQueue{
		{Name: "empty"},
		{Name: "q",
			Visible: []durMsg{{ID: "q-1", Body: []byte("a\nb")}, {ID: "q-2", Body: []byte{}, Receives: 3, Delivered: true},
				{ID: "q-10", Body: []byte("moved"), Receives: 4}},
			Inflight: []durMsg{{ID: "q-9", Body: []byte("!"), Receives: 1, Delivered: true, VisAt: at}}},
	}}
}

func TestDurSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	at := want.Queues[1].Inflight[0].VisAt
	enc := want.appendTo(nil)
	got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.appendTo(nil), enc) || len(got.Queues) != 2 || got.LastID != 12 ||
		!timesEqual(got.Queues[1].Inflight[0].VisAt, at) || !got.Queues[1].Visible[0].VisAt.IsZero() ||
		!got.Queues[1].Visible[1].Delivered || got.Queues[1].Visible[2].Delivered {
		t.Errorf("decode(encode(snapshot)) = %+v", got)
	}
	// The last byte before the in-flight message's time is its delivered flag.
	badFlag := slices.Clone(enc)
	badFlag[len(enc)-9] = 2
	for name, bad := range map[string][]byte{
		"empty":           {},
		"unknown version": append([]byte{snapVersion + 1}, enc[1:]...),
		"older version":   append([]byte{snapVersion - 1}, enc[1:]...),
		"truncated":       enc[:len(enc)-3],
		"trailing byte":   append(enc[:len(enc):len(enc)], 0),
		"queue bomb":      {snapVersion, 0, 0xff, 0xff, 0xff, 0x0f},
		"delivered 2":     badFlag,
	} {
		if _, err := decodeSnapshot(bad); err == nil {
			t.Errorf("%s snapshot decoded", name)
		}
	}
}

// FuzzDurSnapshot: arbitrary bytes never panic and never decode to
// lists longer than the input that has to back them, what does decode
// re-encodes to bytes that decode to the same encoding, and a snapshot
// built from fuzzed contents round-trips byte for byte.
func FuzzDurSnapshot(f *testing.F) {
	sample := sampleSnapshot().appendTo(nil)
	f.Add(sample, "q", 4, int64(0), []byte("body"), 9)
	f.Add(append([]byte{snapVersion - 1}, sample[1:]...), "", 0, int64(-1), []byte{}, 0)
	if strconv.IntSize == 64 {
		// A last id past 32 bits, which a 32-bit int cannot hold.
		wide := int64(1) << 40
		f.Add([]byte{snapVersion, 0, 1, 0, 1, 1, 0, 0, 0, 2}, "job-1/tasks", 2*MaxBatch, int64(1_700_000_000_000_000_000), []byte("\n"), int(wide))
	}
	f.Fuzz(func(t *testing.T, raw []byte, name string, n int, ns int64, body []byte, last int) {
		if snap, err := decodeSnapshot(raw); err == nil {
			lists := len(snap.Queues)
			for _, q := range snap.Queues {
				lists += len(q.Visible) + len(q.Inflight)
			}
			if lists > len(raw) {
				t.Fatalf("decodeSnapshot(%x) built lists longer than its input", raw)
			}
			enc := snap.appendTo(nil)
			again, err := decodeSnapshot(enc)
			if err != nil || !bytes.Equal(again.appendTo(nil), enc) {
				t.Fatalf("decodeSnapshot(%x) = %+v does not survive re-encoding (err %v)", raw, snap, err)
			}
		}

		// A well-shaped snapshot with fuzzed contents: every other message
		// in flight with a lease around the fuzzed instant (halved, so the
		// offsets below stay inside UnixNano's range), every third one
		// never delivered here.
		n = min(max(n, 0), 2*MaxBatch)
		want := &durSnapshot{LastID: max(last, 0), Queues: []durQueue{{Name: name}, {Name: name + "/next"}}}
		q := &want.Queues[0]
		for i := 0; i < n; i++ {
			m := durMsg{ID: fmt.Sprintf("%s-%d", name, i+1), Body: body[:len(body)*i/n], Receives: i, Delivered: i%3 != 0}
			if i%2 == 1 {
				m.VisAt = time.Unix(0, ns/2).Add(time.Duration(i))
				q.Inflight = append(q.Inflight, m)
			} else {
				q.Visible = append(q.Visible, m)
			}
		}
		enc := want.appendTo(nil)
		got, err := decodeSnapshot(enc)
		if err != nil || !bytes.Equal(got.appendTo(nil), enc) || len(got.Queues) != 2 || got.LastID != want.LastID ||
			len(got.Queues[0].Visible) != len(q.Visible) || len(got.Queues[0].Inflight) != len(q.Inflight) {
			t.Fatalf("decodeSnapshot(encode(%+v)) = %+v (err %v)", *want, got, err)
		}
	})
}

// msgState is everything the queue contract can observe about one
// message, plus where it sits.
type msgState struct {
	ID, Body, Receipt string
	Receives          int
	VisAt             int64 // UnixNano; 0 for a visible message's unset time
	Inflight          bool
}

// stateOf renders a service's full state: the id sequence (under the
// empty name, which no queue can have), then per queue the visible
// messages in delivery order and the in-flight ones by ID (heap order is
// an implementation detail). A message delivered here shows the receipt
// that names it.
func stateOf(s *Service) map[string][]msgState {
	snap := s.captureState()
	out := map[string][]msgState{"": {{ID: fmt.Sprintf("last=%d", snap.LastID)}}}
	for _, q := range snap.Queues {
		render := func(list []durMsg, inflight bool) []msgState {
			var ms []msgState
			for _, m := range list {
				st := msgState{ID: m.ID, Body: string(m.Body), Receives: m.Receives, Inflight: inflight}
				if m.Delivered {
					st.Receipt = receipt(m.ID, m.Receives)
				}
				if !m.VisAt.IsZero() {
					st.VisAt = m.VisAt.UnixNano()
				}
				ms = append(ms, st)
			}
			return ms
		}
		inflight := render(q.Inflight, true)
		sort.Slice(inflight, func(i, j int) bool { return inflight[i].ID < inflight[j].ID })
		out[q.Name] = append(render(q.Visible, false), inflight...)
	}
	return out
}

// Recover() after Halt and Follower.Promote() are the same fold over
// the same bytes: both yield the dead primary's exact state — ids,
// bodies, receipts, receive counts, lease expiries to the nanosecond —
// whether the journal is a snapshot epoch plus a tail or a tail alone.
func TestRecoverAndPromoteYieldIdenticalState(t *testing.T) {
	for _, tc := range []struct {
		name      string
		snapEvery int
		wantEpoch bool
	}{
		{"tail only", -1, false},
		{"snapshot epoch plus tail", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := blob.NewStore(blob.Config{})
			// An odd nanosecond start: second-granular times would hide a
			// codec that rounds.
			clk := NewFakeClock(time.Unix(1_700_000_000, 123_456_789))
			cfg := durConfig(store, clk, "shard-0")
			cfg.Durability.SnapshotEvery = tc.snapEvery
			p := NewService(cfg)
			if err := p.Recover(); err != nil {
				t.Fatal(err)
			}
			f, err := NewFollower(cfg)
			if err != nil {
				t.Fatal(err)
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(p.CreateQueue("q"))
			must(p.CreateQueue("gone"))
			_, err = p.SendMessageBatch("q", [][]byte{[]byte("plain"), {}, []byte("\n"), []byte("!{\"seq\":3}\n"), {0x01, 0x00}})
			must(err)
			_, err = p.TransferInBatch("q", []TransferItem{{Body: []byte("moved"), Receives: 4}, {Body: []byte("fresh")}})
			must(err)
			_, err = p.SendMessage("gone", []byte("x"))
			must(err)
			if _, err := f.CatchUp(); err != nil { // the follower folds part live, part at promotion
				t.Fatal(err)
			}
			clk.Advance(1500 * time.Microsecond)
			got, err := p.ReceiveMessageBatch("q", 90*time.Second+7*time.Nanosecond, 3, 0)
			must(err)
			if len(got) != 3 {
				t.Fatalf("received %d messages, want 3", len(got))
			}
			must(p.DeleteMessage("q", got[0].ReceiptHandle))
			clk.Advance(time.Nanosecond)
			must(p.ChangeVisibility("q", got[1].ReceiptHandle, 5*time.Minute+3*time.Nanosecond))
			must(p.DeleteQueue("gone"))
			must(p.CreateQueue("purged"))
			_, err = p.SendMessage("purged", []byte("y"))
			must(err)
			must(p.Purge("purged"))
			for i := 0; i < 4; i++ {
				_, err = p.SendMessage("q", []byte(fmt.Sprintf("late-%d", i)))
				must(err)
			}
			_, err = p.ReceiveMessageBatch("q", time.Hour, 1, 0)
			must(err)

			want := stateOf(p)
			p.Halt()
			v, err := p.dur.log.Load()
			must(err)
			if (v.Seq > 0) != tc.wantEpoch || len(v.Entries) == 0 {
				t.Fatalf("journal has epoch %d and %d tail records; the case wants epoch=%v and a tail", v.Seq, len(v.Entries), tc.wantEpoch)
			}

			r := NewService(cfg)
			must(r.Recover())
			promoted, err := f.Promote()
			must(err)
			for name, s := range map[string]*Service{"Recover": r, "Promote": promoted} {
				if got := stateOf(s); !equalStates(got, want) {
					t.Errorf("%s state differs from the primary's:\n got %+v\nwant %+v", name, got, want)
				}
			}
			if len(want["q"]) < 8 || want["q"][len(want["q"])-1].VisAt%1000 == 0 {
				t.Fatalf("fixture lost its in-flight nanosecond leases: %+v", want["q"])
			}
		})
	}
}

func equalStates(a, b map[string][]msgState) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ms := range a {
		if !slices.Equal(ms, b[name]) {
			return false
		}
	}
	return true
}

// corruptJournalByte flips one byte of a journal object in place.
func corruptJournalByte(t *testing.T, store *blob.Store, key string, at func(doc []byte) int) {
	t.Helper()
	doc, err := store.GetConsistent("queue-journal", key)
	if err != nil {
		t.Fatal(err)
	}
	doc[at(doc)] ^= 0xff
	if err := store.Put("queue-journal", key, doc); err != nil {
		t.Fatal(err)
	}
}

// A standby that cannot read its primary's journal says so: the error
// is kept (ErrCorrupt-wrapped), Lag and Promote report it, and the state
// folded before the damage is left alone — for damage in the framing
// and for a well-framed record that does not decode.
func TestFollowerKeepsFoldErrors(t *testing.T) {
	for _, tc := range []struct {
		name, wantMsg string
		// at picks the byte to flip, given the log and where its last
		// frame starts.
		at func(doc []byte, last int) int
	}{
		{"bad frame tag", "unknown frame tag", func(doc []byte, last int) int { return last }},
		{"bad record op", "unknown op", func(doc []byte, last int) int { return last + 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := blob.NewStore(blob.Config{})
			clk := NewFakeClock(time.Unix(1000, 0))
			cfg := durConfig(store, clk, "shard-0")
			p := NewService(cfg)
			if err := p.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := p.CreateQueue("q"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := p.SendMessage("q", []byte("m")); err != nil {
					t.Fatal(err)
				}
			}
			f, err := NewFollower(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.CatchUp(); err != nil || f.Err() != nil {
				t.Fatalf("healthy catch-up: %v / Err %v", err, f.Err())
			}
			before := stateOf(f.Service())

			_, last, err := p.dur.log.Head()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.SendMessage("q", []byte("unreadable")); err != nil {
				t.Fatal(err)
			}
			corruptJournalByte(t, store, "shard-0", func(doc []byte) int { return tc.at(doc, int(last)) })

			for try := 1; try <= 2; try++ {
				if _, err := f.CatchUp(); !errors.Is(err, journal.ErrCorrupt) {
					t.Fatalf("catch-up %d over a corrupt journal = %v, want ErrCorrupt", try, err)
				}
				err := f.Err()
				if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), tc.wantMsg) ||
					!strings.Contains(err.Error(), fmt.Sprintf("%d catch-ups failed", try)) {
					t.Fatalf("Err() after %d failures = %v", try, err)
				}
			}
			if _, err := f.Lag(); !errors.Is(err, journal.ErrCorrupt) {
				t.Errorf("Lag() = %v, want the kept ErrCorrupt", err)
			}
			if svc, err := f.Promote(); !errors.Is(err, journal.ErrCorrupt) || svc != nil {
				t.Errorf("Promote() = %v, %v; want a refusal wrapping ErrCorrupt", svc, err)
			}
			if got := stateOf(f.Service()); !equalStates(got, before) {
				t.Errorf("standby state changed by a failed fold:\n got %+v\nwant %+v", got, before)
			}
			if _, err := f.Service().SendMessage("q", []byte("x")); !errors.Is(err, ErrNotRecovered) {
				t.Errorf("refused promotion left the standby writable: %v", err)
			}

			// Repaired (the flip undone), the same follower catches up and
			// forgets the error.
			corruptJournalByte(t, store, "shard-0", func(doc []byte) int { return tc.at(doc, int(last)) })
			if n, err := f.CatchUp(); err != nil || n == 0 || f.Err() != nil {
				t.Fatalf("catch-up after repair = %d, %v / Err %v", n, err, f.Err())
			}
			if vis, _, err := f.Service().QueueDepth("q"); err != nil || vis != 4 {
				t.Errorf("depth after repair = %d (err %v), want 4", vis, err)
			}
		})
	}
}

// DumpJournal renders a mixed log — snapshot epoch, every op, raw and
// awkward bodies — as JSON lines that read back to the same records, and
// keeps going past a record it cannot decode.
func TestDumpJournalRoundTrip(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	if err := store.CreateBucket("j"); err != nil {
		t.Fatal(err)
	}
	log := journal.Log{Store: store, Bucket: "j", Key: "shard-x"}
	snap := &durSnapshot{LastID: 2, Queues: []durQueue{{Name: "q", Visible: []durMsg{{ID: "q-2", Body: []byte("kept")}}}}}
	if err := log.Create([]byte("placeholder")); err != nil {
		t.Fatal(err)
	}
	if err := log.Snapshot(snap.appendTo(nil)); err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := log.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	if err := DumpJournal(&out, log); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2+len(want) {
		t.Fatalf("dump has %d lines, want header + snapshot + %d records:\n%s", len(lines), len(want), out.String())
	}
	var head struct {
		Journal string
		Epoch   int64
		Records int
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil || head.Journal != "j/shard-x" || head.Epoch == 0 || head.Records != len(want) {
		t.Errorf("header line %s (err %v)", lines[0], err)
	}
	if !strings.Contains(lines[1], `"snapshot"`) || !strings.Contains(lines[1], `"q-2"`) {
		t.Errorf("snapshot line %s", lines[1])
	}
	for i, r := range want {
		var got struct {
			durRecord
			Op string `json:"op"`
		}
		if err := json.Unmarshal([]byte(lines[2+i]), &got); err != nil {
			t.Fatalf("line %d %s: %v", 3+i, lines[2+i], err)
		}
		got.durRecord.Op = r.Op
		if got.Op != r.Op.String() || !recordsEqual(&got.durRecord, r) {
			t.Errorf("line %d = %s, want %+v", 3+i, lines[2+i], *r)
		}
		// A record without a time prints none, not Go's zero time.
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[2+i]), &keys); err != nil {
			t.Fatal(err)
		}
		if _, has := keys["t"]; has != !r.T.IsZero() {
			t.Errorf("line %d = %s: has a \"t\" key %v, want %v", 3+i, lines[2+i], has, !r.T.IsZero())
		}
	}

	// One undecodable record and a torn final frame: everything readable
	// is still printed, each problem in place, and the first is returned.
	if err := log.Append([]byte{byte(opEnd), 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRecord(want[1]); err != nil {
		t.Fatal(err)
	}
	doc, _ := store.GetConsistent("j", "shard-x")
	if err := store.Put("j", "shard-x", append(doc, journal.AppendFrame(nil, []byte("torn frame"))[:5]...)); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := DumpJournal(&out, log)
	if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("record %d", len(want)+1)) {
		t.Errorf("DumpJournal over a damaged log = %v, want ErrCorrupt naming record %d", err, len(want)+1)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2+len(want)+3 {
		t.Fatalf("damaged dump has %d lines:\n%s", len(lines), out.String())
	}
	tail := lines[len(lines)-3:]
	if !strings.Contains(tail[0], `"error"`) || !strings.Contains(tail[0], "unknown op") ||
		!strings.Contains(tail[1], `"op":"create"`) ||
		!strings.Contains(tail[2], "truncated frame at offset") {
		t.Errorf("damaged dump ends:\n%s", strings.Join(tail, "\n"))
	}
}
