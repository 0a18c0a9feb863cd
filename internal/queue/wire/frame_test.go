package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/codec"
)

func framesEqual(a, b Frame) bool {
	return a.Op == b.Op && a.CorrID == b.CorrID && a.Queue == b.Queue &&
		a.Trace == b.Trace && bytes.Equal(a.Payload, b.Payload)
}

// encodeFrame writes f as the client writes a request: encodeRequest
// builds the body and writeFrame prefixes its length.
func encodeFrame(t testing.TB, f Frame) []byte {
	t.Helper()
	bp := encodeRequest(f.Op, f.CorrID, f.Queue, f.Trace, func(e *codec.Enc) { e.B = append(e.B, f.Payload...) })
	defer codec.PutBuf(bp)
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	if err := writeFrame(bw, *bp); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// decodeFrame reads one frame off the front of data as client and server
// read theirs — readFrameBody, then parseBody — and reports how many
// bytes of data the read took. Payload is copied out of the pooled
// buffer before it goes back.
func decodeFrame(data []byte) (Frame, int, error) {
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	bp, err := readFrameBody(br)
	if err != nil {
		return Frame{}, 0, err
	}
	defer codec.PutBuf(bp)
	f, err := parseBody(*bp)
	if err != nil {
		return Frame{}, 0, err
	}
	f.Payload = bytes.Clone(f.Payload)
	return f, len(data) - src.Len() - br.Buffered(), nil
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpCreateQueue, CorrID: 1, Queue: "tasks"},
		{Op: OpSend, CorrID: 1 << 40, Queue: "job-1/tasks", Trace: "t-abc123", Payload: []byte("hello world")},
		{Op: OpReceive, CorrID: 0, Queue: "", Trace: "", Payload: nil},
		{Op: OpTransfer, CorrID: 7, Queue: string(bytes.Repeat([]byte("q"), 300)), Payload: bytes.Repeat([]byte{0xff, 0x00}, 4096)},
	}
	for _, f := range cases {
		enc := encodeFrame(t, f)
		got, n, err := decodeFrame(enc)
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

// A stream that ends inside a frame is io.ErrUnexpectedEOF; one that
// ends before it is a clean io.EOF.
func TestDecodeFrameTruncated(t *testing.T) {
	full := encodeFrame(t, Frame{Op: OpSend, CorrID: 42, Queue: "q", Trace: "t", Payload: []byte("payload")})
	if _, _, err := decodeFrame(nil); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	for i := 1; i < len(full); i++ {
		if _, _, err := decodeFrame(full[:i]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d/%d bytes: got %v, want io.ErrUnexpectedEOF", i, len(full), err)
		}
	}
}

func TestDecodeFrameOversized(t *testing.T) {
	data := binary.AppendUvarint(nil, maxFrame+1)
	if _, _, err := decodeFrame(data); !errors.Is(err, ErrFrameTooBig) {
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
		if _, _, err := decodeFrame(data); err == nil {
			t.Fatalf("garbage %x decoded without error", data)
		}
	}
}

func TestStatusErrMapping(t *testing.T) {
	for _, s := range statusSentinels {
		code, sentinel := s.code, s.err
		if err := statusErr(code, "remote detail: "+sentinel.Error()); !errors.Is(err, sentinel) {
			t.Fatalf("status %d does not unwrap to %v", code, sentinel)
		}
		if err := statusErr(code, ""); !errors.Is(err, sentinel) {
			t.Fatalf("status %d with empty message does not unwrap to %v", code, sentinel)
		}
		if got := statusFor(fmt.Errorf("remote detail: %w", sentinel)); got != code {
			t.Fatalf("an error wrapping %v is sent as status %d, want %d", sentinel, got, code)
		}
	}
	if err := statusErr(statusError, "boom"); err == nil || err.Error() != "boom" {
		t.Fatalf("generic status lost its message: %v", err)
	}
}
