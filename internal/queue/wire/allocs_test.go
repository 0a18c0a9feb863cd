package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/queue"
)

// receiveAllocBudget is the committed allocation budget for decoding
// one full receive-response payload of queue.MaxBatch messages on the
// client, whatever the batch size: the message slice and the two copies
// of the payload its ids, receipts and bodies are sliced from (it was
// three allocations per message, one per field). The frame buffer
// itself, the scratch encoder, and the call handle are all pooled and
// must not appear here.
const receiveAllocBudget = 3

// TestReceiveDecodeAllocBudget pins the wire receive path's decode
// cost. It regresses if a future change starts copying the frame per
// field, loses the buffer pool, or grows per-message bookkeeping.
func TestReceiveDecodeAllocBudget(t *testing.T) {
	msgs := make([]queue.Message, queue.MaxBatch)
	for i := range msgs {
		msgs[i] = queue.Message{
			ID:            fmt.Sprintf("tasks-%d", i),
			Body:          []byte("task body payload of a plausible size for a dispatch message"),
			ReceiptHandle: fmt.Sprintf("tasks-%d#r1", i),
			Receives:      1,
		}
	}
	var e codec.Enc
	e.Byte(statusOK)
	appendMessages(&e, msgs)
	payload := e.B

	allocs := testing.AllocsPerRun(200, func() {
		d := codec.Dec{B: payload}
		if d.Byte() != statusOK {
			t.Fatal("bad status")
		}
		got := readMessages(&d)
		if d.Err != nil || len(got) != queue.MaxBatch {
			t.Fatalf("decode failed: %v, %d messages", d.Err, len(got))
		}
	})
	if allocs > receiveAllocBudget {
		t.Fatalf("receive decode allocates %.1f per batch, budget %d", allocs, receiveAllocBudget)
	}
}

// TestDecodedMessagesOutliveTheFrame: the messages of one response share
// two copies of its payload, never the pooled frame buffer. Appending to
// one body must leave the next body alone, and ids and receipts must
// keep their bytes once the frame buffer is back in the pool and
// overwritten by the next frame.
func TestDecodedMessagesOutliveTheFrame(t *testing.T) {
	sent := []queue.Message{
		{ID: "q-1", Body: []byte("first"), ReceiptHandle: "q-1#r1", Receives: 1},
		{ID: "q-2", Body: []byte("second"), ReceiptHandle: "q-2#r3", Receives: 3},
	}
	bp := codec.GetBuf()
	e := codec.Enc{B: *bp}
	appendMessages(&e, sent)
	*bp = e.B
	d := codec.Dec{B: *bp}
	got := readMessages(&d)
	if d.Err != nil || len(got) != len(sent) {
		t.Fatalf("decoded %d messages, %v", len(got), d.Err)
	}
	// Overwrite the frame as the next response read into it would.
	for i := range *bp {
		(*bp)[i] = 'x'
	}
	codec.PutBuf(bp)
	for i := 0; i < 8; i++ {
		b := codec.GetBuf()
		*b = append(*b, bytes.Repeat([]byte{'y'}, 256)...)
		codec.PutBuf(b)
	}
	// A byte at a time, so an uncapped body would write over the rest of
	// the arena, the second body included, before append reallocated it.
	tail := strings.Repeat("+", 64)
	for i := range tail {
		got[0].Body = append(got[0].Body, tail[i])
	}
	for i, m := range got {
		want := sent[i]
		if i == 0 {
			want.Body = []byte("first" + tail)
		}
		if m.ID != want.ID || string(m.Body) != string(want.Body) ||
			m.ReceiptHandle != want.ReceiptHandle || m.Receives != want.Receives {
			t.Errorf("message %d = %+q, want %+q", i, m, want)
		}
	}
}
