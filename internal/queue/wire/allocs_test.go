package wire

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/queue"
)

// receiveAllocBudget is the committed allocation budget for decoding
// one full receive-response payload of queue.MaxBatch messages on the
// client: one slice plus three unavoidable per-message allocations
// (the ID string, the receipt string, and the body copy out of the
// pooled frame buffer). The frame buffer itself, the scratch encoder,
// and the call handle are all pooled and must not appear here.
const receiveAllocBudget = 1 + 3*queue.MaxBatch

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
