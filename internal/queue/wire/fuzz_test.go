package wire

import (
	"testing"
)

// FuzzWireFrame drives the decoder client and server run — readFrameBody
// then parseBody — with arbitrary bytes: malformed input (truncated,
// oversized, garbage) must only error, without panicking; a decoded
// frame must lie within the input; and every decoded frame, re-encoded
// the way the client writes one (encodeRequest + writeFrame), must
// decode back to itself.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(encodeFrame(f, Frame{Op: OpCreateQueue, CorrID: 1, Queue: "tasks"}))
	f.Add(encodeFrame(f, Frame{Op: OpSend, CorrID: 1 << 33, Queue: "job-1/tasks", Trace: "t-1", Payload: []byte("body")}))
	f.Add(encodeFrame(f, Frame{Op: OpTransfer, CorrID: 9, Queue: "q", Payload: []byte{0x02, 0x01, 'x', 0x00}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := decodeFrame(data)
		if err != nil {
			return // malformed input must only error, which it did
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d bytes of %d-byte input", n, len(data))
		}
		if again, m, err := decodeFrame(data[:n]); err != nil || m != n || !framesEqual(fr, again) {
			t.Fatalf("frame does not lie within the %d bytes it consumed: %+v, %d, %v", n, again, m, err)
		}
		re := encodeFrame(t, fr)
		fr2, n2, err := decodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		if !framesEqual(fr, fr2) {
			t.Fatalf("decode(encode(f)) != f: %+v vs %+v", fr, fr2)
		}
	})
}
