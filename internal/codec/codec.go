// Package codec is the one binary field codec: the wire transport's
// frame payloads, the durable shard's journal records and snapshots and
// the broker's job-submission body are all built from these primitives,
// so there is a single place where a length is read off untrusted bytes.
//
// Enc is append-style: every method appends to B and nothing else, so a
// caller can hand it a pooled buffer and take the grown slice back. Dec
// is latching: the first malformed field sets Err and every later read
// returns a zero value, so call sites stay linear and check Err once at
// the end. Declared lengths are validated against the bytes remaining
// before any slice is taken or sized, so garbage cannot cause an
// over-read or an allocation bomb.
//
//	uvarint  U64, Len, and the length prefix of Bytes/Str
//	varint   I64 (zig-zag)
//	bytes    uvarint(len) || raw bytes
//	time     8-byte little-endian UnixNano; math.MinInt64 is the zero Time
package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"time"
)

// ErrCorrupt is what Dec latches on any malformed field.
var ErrCorrupt = errors.New("codec: corrupt encoding")

// Enc builds an encoding by appending to B.
type Enc struct{ B []byte }

func (e *Enc) Byte(c byte)    { e.B = append(e.B, c) }
func (e *Enc) U64(v uint64)   { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) I64(v int64)    { e.B = binary.AppendVarint(e.B, v) }
func (e *Enc) Bytes(p []byte) { e.U64(uint64(len(p))); e.B = append(e.B, p...) }
func (e *Enc) Str(s string)   { e.U64(uint64(len(s))); e.B = append(e.B, s...) }

// zeroTime encodes time.Time{}, whose UnixNano is undefined. It is not
// a reachable instant otherwise: UnixNano's range ends a nanosecond
// above it.
const zeroTime = math.MinInt64

// Time appends t at nanosecond precision. Instants outside UnixNano's
// range (years 1678–2262) are not representable; the service clocks
// this encodes never leave it.
func (e *Enc) Time(t time.Time) {
	ns := int64(zeroTime)
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	e.B = binary.LittleEndian.AppendUint64(e.B, uint64(ns))
}

// Dec consumes an encoding from the front of B.
type Dec struct {
	B   []byte
	Err error
}

// Fail latches ErrCorrupt; decoders layered on Dec call it for their
// own shape violations so one Err check covers both.
func (d *Dec) Fail() {
	if d.Err == nil {
		d.Err = ErrCorrupt
	}
}

func (d *Dec) Byte() byte {
	if d.Err != nil || len(d.B) < 1 {
		d.Fail()
		return 0
	}
	c := d.B[0]
	d.B = d.B[1:]
	return c
}

func (d *Dec) U64() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.B = d.B[n:]
	return v
}

func (d *Dec) I64() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.B)
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Len reads a collection count and bounds it by the bytes remaining
// (each element costs at least one byte), rejecting length bombs.
func (d *Dec) Len() int {
	n := d.U64()
	if d.Err == nil && n > uint64(len(d.B)) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Bytes returns the next length-prefixed field aliasing the underlying
// buffer; callers that outlive the buffer must copy.
func (d *Dec) Bytes() []byte {
	n := d.U64()
	if d.Err != nil {
		return nil
	}
	if n > uint64(len(d.B)) {
		d.Fail()
		return nil
	}
	p := d.B[:n:n]
	d.B = d.B[n:]
	return p
}

func (d *Dec) Str() string { return string(d.Bytes()) }

func (d *Dec) Time() time.Time {
	if d.Err != nil || len(d.B) < 8 {
		d.Fail()
		return time.Time{}
	}
	ns := int64(binary.LittleEndian.Uint64(d.B))
	d.B = d.B[8:]
	if ns == zeroTime {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Rest returns everything not yet consumed.
func (d *Dec) Rest() []byte {
	p := d.B
	d.B = nil
	return p
}

// bufPool recycles scratch buffers across requests and journal appends.
// Buffers above keepBuf bytes are dropped rather than pooled so one
// giant frame or snapshot does not pin memory forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const keepBuf = 1 << 20

// GetBuf returns an empty pooled buffer; release it with PutBuf once
// nothing aliases its bytes.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

func PutBuf(b *[]byte) {
	if cap(*b) > keepBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
