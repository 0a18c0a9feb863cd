package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"runtime"

	"repro/internal/codec"
	"repro/internal/queue"
)

// Response status codes. statusOK is followed by the op-specific result
// payload; every other code is followed by str(message) and maps back
// to one of the queue package's sentinel errors so errors.Is keeps
// working across the wire.
const (
	statusOK byte = iota
	statusError
	statusNoSuchQueue
	statusQueueExists
	statusStaleReceipt
	statusEmptyQueueName
	statusBatchSize
	statusNotPrivileged
	statusBadTransfer
)

// statusSentinels pairs each sentinel error with its status code. Encoding
// takes the first sentinel an error matches, in this order; decoding maps
// a code back to its sentinel.
var statusSentinels = []struct {
	code byte
	err  error
}{
	{statusNoSuchQueue, queue.ErrNoSuchQueue},
	{statusQueueExists, queue.ErrQueueExists},
	{statusStaleReceipt, queue.ErrStaleReceipt},
	{statusEmptyQueueName, queue.ErrEmptyQueueName},
	{statusBatchSize, queue.ErrBatchSize},
	{statusNotPrivileged, queue.ErrNotPrivileged},
	{statusBadTransfer, queue.ErrBadTransfer},
}

// statusFor classifies an error for the wire.
func statusFor(err error) byte {
	for _, s := range statusSentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return statusError
}

// wireError carries a remote error message while unwrapping to the
// sentinel the status code named, so callers keep matching with
// errors.Is and humans keep the remote detail.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// statusErr reconstructs an error from a non-OK status code and its
// message.
func statusErr(code byte, msg string) error {
	for _, s := range statusSentinels {
		if s.code != code {
			continue
		}
		if msg == "" || msg == s.err.Error() {
			return s.err
		}
		return &wireError{msg: msg, sentinel: s.err}
	}
	if msg == "" {
		msg = "wire: remote error"
	}
	return errors.New(msg)
}

// appendMessages encodes a received-message list.
func appendMessages(e *codec.Enc, msgs []queue.Message) {
	e.U64(uint64(len(msgs)))
	for i := range msgs {
		e.Str(msgs[i].ID)
		e.Bytes(msgs[i].Body)
		e.Str(msgs[i].ReceiptHandle)
		e.U64(uint64(msgs[i].Receives))
	}
}

// readMessages decodes a received-message list. The frame buffer returns
// to the pool as soon as the caller finishes decoding, while a message
// may be held for a whole task execution, so what is left of the payload
// is copied once, as one string backing every id and receipt and one
// byte slice backing every body. A body is capped at its own end: an
// append to it reallocates instead of running into the next one.
func readMessages(d *codec.Dec) []queue.Message {
	n := d.Len()
	if d.Err != nil || n == 0 {
		return nil
	}
	strs, raw := string(d.B), append([]byte(nil), d.B...)
	msgs := make([]queue.Message, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		var m queue.Message
		lo, hi := field(d, len(raw))
		m.ID = strs[lo:hi]
		if lo, hi = field(d, len(raw)); hi > lo {
			m.Body = raw[lo:hi:hi]
		}
		lo, hi = field(d, len(raw))
		m.ReceiptHandle = strs[lo:hi]
		m.Receives = int(d.U64())
		msgs = append(msgs, m)
	}
	return msgs
}

// field reads d's next length-prefixed field and returns where it lies
// in the arenas copied when d had size bytes left.
func field(d *codec.Dec, size int) (lo, hi int) {
	p := d.Bytes()
	hi = size - len(d.B)
	return hi - len(p), hi
}

// appendStrings encodes a string list (message ids, queue names).
func appendStrings(e *codec.Enc, ss []string) {
	e.U64(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// readStrings decodes a string list, every string a slice of one copy of
// what is left of the payload.
func readStrings(d *codec.Dec) []string {
	n := d.Len()
	if d.Err != nil || n == 0 {
		return nil
	}
	strs := string(d.B)
	ss := make([]string, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		lo, hi := field(d, len(strs))
		ss = append(ss, strs[lo:hi])
	}
	return ss
}

// readFrameBody reads one frame off a stream into a pooled buffer and
// returns the body (length prefix stripped). The caller owns the
// buffer and must release it with codec.PutBuf.
func readFrameBody(br *bufio.Reader) (*[]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, ErrFrameTooBig
	}
	bp := codec.GetBuf()
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	} else {
		*bp = (*bp)[:n]
	}
	if _, err := io.ReadFull(br, *bp); err != nil {
		codec.PutBuf(bp)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bp, nil
}

// writeFrame writes one frame — prefix plus pre-encoded body — to a
// buffered writer without flushing (the writer goroutines coalesce
// flushes across pipelined frames).
func writeFrame(bw *bufio.Writer, body []byte) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(body)))
	if _, err := bw.Write(tmp[:n]); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// writeLoop is a connection's one writer, client and server side alike:
// it takes the frames queued on frames, each a pooled buffer it releases,
// and sends them until done closes, returning nil then, or the first
// write error. A flush carries every frame queued by then. Before it
// flushes, the writer yields once: on a busy process the callers (or
// handlers) that the last responses made runnable queue their frames
// into the same write, and on an idle one the yield returns at once.
// There is no timer and no size threshold, so a lone frame waits for
// nothing.
func writeLoop(bw *bufio.Writer, frames <-chan *[]byte, done <-chan struct{}) error {
	for {
		select {
		case bp := <-frames:
			err := writeFrame(bw, *bp)
			codec.PutBuf(bp)
			if err == nil {
				err = writeQueued(bw, frames)
			}
			if err == nil {
				runtime.Gosched()
				err = writeQueued(bw, frames)
			}
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				return err
			}
		case <-done:
			return nil
		}
	}
}

// writeQueued buffers every frame already queued on frames, without
// waiting for more.
func writeQueued(bw *bufio.Writer, frames <-chan *[]byte) error {
	for {
		select {
		case bp := <-frames:
			err := writeFrame(bw, *bp)
			codec.PutBuf(bp)
			if err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// encodeRequest assembles a request frame body into a pooled buffer.
func encodeRequest(op byte, corrID uint64, queueName, trace string, payload func(*codec.Enc)) *[]byte {
	bp := codec.GetBuf()
	e := codec.Enc{B: *bp}
	e.Byte(op)
	e.U64(corrID)
	e.Str(queueName)
	e.Str(trace)
	if payload != nil {
		payload(&e)
	}
	*bp = e.B
	return bp
}
