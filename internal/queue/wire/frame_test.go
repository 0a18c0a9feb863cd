package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func framesEqual(a, b Frame) bool {
	return a.Op == b.Op && a.CorrID == b.CorrID && a.Queue == b.Queue &&
		a.Trace == b.Trace && bytes.Equal(a.Payload, b.Payload)
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpCreateQueue, CorrID: 1, Queue: "tasks"},
		{Op: OpSend, CorrID: 1 << 40, Queue: "job-1/tasks", Trace: "t-abc123", Payload: []byte("hello world")},
		{Op: OpReceive, CorrID: 0, Queue: "", Trace: "", Payload: nil},
		{Op: OpTransfer, CorrID: 7, Queue: string(bytes.Repeat([]byte("q"), 300)), Payload: bytes.Repeat([]byte{0xff, 0x00}, 4096)},
	}
	for _, f := range cases {
		enc := EncodeFrame(f)
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", f, err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !framesEqual(f, got) {
			t.Fatalf("round trip mismatch: sent %+v got %+v", f, got)
		}
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full := EncodeFrame(Frame{Op: OpSend, CorrID: 42, Queue: "q", Trace: "t", Payload: []byte("payload")})
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeFrame(full[:i]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", i, len(full))
		}
	}
}

func TestDecodeFrameOversized(t *testing.T) {
	data := binary.AppendUvarint(nil, maxFrame+1)
	if _, _, err := DecodeFrame(data); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized declared length: got %v, want ErrFrameTooBig", err)
	}
}

func TestDecodeFrameGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},             // zero-length body: no opcode
		{0x02, 0x00, 0x01}, // valid length, opcode 0
		{0x02, 0xff, 0x01}, // unknown opcode
		{0x05, byte(OpSend), 0x01, 0xff, 0xff, 0xff}, // queue length runs past body
	}
	for _, data := range cases {
		if _, _, err := DecodeFrame(data); err == nil {
			t.Fatalf("garbage %x decoded without error", data)
		}
	}
}

func TestStatusErrMapping(t *testing.T) {
	for code, sentinel := range statusSentinels {
		if err := statusErr(code, "remote detail: "+sentinel.Error()); !errors.Is(err, sentinel) {
			t.Fatalf("status %d does not unwrap to %v", code, sentinel)
		}
		if err := statusErr(code, ""); !errors.Is(err, sentinel) {
			t.Fatalf("status %d with empty message does not unwrap to %v", code, sentinel)
		}
	}
	if err := statusErr(statusError, "boom"); err == nil || err.Error() != "boom" {
		t.Fatalf("generic status lost its message: %v", err)
	}
}
