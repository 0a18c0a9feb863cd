package queue

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestTransferInPreservesCount: a transferred message resumes its
// delivery count — the property queue migration needs so MaxReceives
// poison detection does not lose progress when a queue moves. Until it
// is delivered here no receipt names it, not even the one its count
// would render.
func TestTransferInPreservesCount(t *testing.T) {
	s := NewService(Config{Seed: 1})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	id, err := s.TransferIn("q", []byte("moved"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ChangeVisibility("q", receipt(id, 3), time.Hour); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("never-delivered transfer leased by %s: %v", receipt(id, 3), err)
	}
	if err := s.DeleteMessage("q", receipt(id, 3)); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("never-delivered transfer deleted by %s: %v", receipt(id, 3), err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive transferred message: ok=%v err=%v", ok, err)
	}
	if m.Receives != 4 {
		t.Errorf("Receives = %d, want 4 (3 prior deliveries + this one)", m.Receives)
	}
	if string(m.Body) != "moved" {
		t.Errorf("Body = %q", m.Body)
	}
	// The resumed count keeps advancing: release and redeliver.
	if err := s.ChangeVisibility("q", m.ReceiptHandle, 0); err != nil {
		t.Fatal(err)
	}
	m, ok, err = s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok || m.Receives != 5 {
		t.Fatalf("redelivery after transfer: ok=%v err=%v receives=%d, want 5", ok, err, m.Receives)
	}
}

// TestTransferInZeroReceives: receives=0 is an ordinary fresh send.
func TestTransferInZeroReceives(t *testing.T) {
	s := NewService(Config{Seed: 1})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransferIn("q", []byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok || m.Receives != 1 {
		t.Fatalf("ok=%v err=%v receives=%d, want 1", ok, err, m.Receives)
	}
}

// TestTransferInValidation: malformed transfers are rejected before
// anything is billed or enqueued.
func TestTransferInValidation(t *testing.T) {
	s := NewService(Config{Seed: 1})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	base := s.APIRequestsFor("q")
	if _, err := s.TransferIn("q", []byte("x"), -1); !errors.Is(err, ErrBadTransfer) {
		t.Errorf("negative receives: %v, want ErrBadTransfer", err)
	}
	if _, err := s.TransferInBatch("q", nil); !errors.Is(err, ErrBatchSize) {
		t.Errorf("empty batch: %v, want ErrBatchSize", err)
	}
	big := make([]TransferItem, MaxBatch+1)
	if _, err := s.TransferInBatch("q", big); !errors.Is(err, ErrBatchSize) {
		t.Errorf("oversized batch: %v, want ErrBatchSize", err)
	}
	// One bad item rejects the whole batch: no partial enqueue.
	mixed := []TransferItem{{Body: []byte("a"), Receives: 1}, {Body: []byte("b"), Receives: -2}}
	if _, err := s.TransferInBatch("q", mixed); !errors.Is(err, ErrBadTransfer) {
		t.Errorf("mixed batch: %v, want ErrBadTransfer", err)
	}
	if v, inf, _ := s.ApproximateCount("q"); v != 0 || inf != 0 {
		t.Errorf("rejected batch enqueued a prefix: %d visible, %d in flight", v, inf)
	}
	// ApproximateCount billed one request; none of the rejects did.
	if got := s.APIRequestsFor("q") - base; got != 1 {
		t.Errorf("rejected transfers billed %d extra requests, want 0", got-1)
	}
	if _, err := s.TransferIn("ghost", []byte("x"), 1); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("unknown queue: %v, want ErrNoSuchQueue", err)
	}
}

// TestTransferInBatchBilling: a transfer batch bills the destination
// queue exactly one request, like every other batch call.
func TestTransferInBatchBilling(t *testing.T) {
	s := NewService(Config{Seed: 1})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	base := s.APIRequestsFor("q")
	items := make([]TransferItem, MaxBatch)
	for i := range items {
		items[i] = TransferItem{Body: []byte(fmt.Sprintf("m%d", i)), Receives: i}
	}
	ids, err := s.TransferInBatch("q", items)
	if err != nil || len(ids) != MaxBatch {
		t.Fatalf("batch transfer: ids=%d err=%v", len(ids), err)
	}
	if got := s.APIRequestsFor("q") - base; got != 1 {
		t.Errorf("batch transfer billed %d requests, want exactly 1", got)
	}
	if v, _, _ := s.ApproximateCount("q"); v != MaxBatch {
		t.Errorf("visible = %d, want %d", v, MaxBatch)
	}
}
