package queue

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Long polling
// ---------------------------------------------------------------------------

func TestLongPollWakesOnSend(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	type result struct {
		m  Message
		ok bool
	}
	got := make(chan result, 1)
	go func() {
		m, ok, err := s.ReceiveMessageWait("q", time.Minute, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		got <- result{m, ok}
	}()
	time.Sleep(20 * time.Millisecond) // let the poller block
	start := time.Now()
	if _, err := s.SendMessage("q", []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !r.ok {
			t.Fatal("long poll returned empty despite a send")
		}
		if string(r.m.Body) != "wake" {
			t.Errorf("body = %q", r.m.Body)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("wakeup took %v; long poll is sleeping, not waiting", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on send")
	}
}

func TestLongPollWakesOnVisibilityExpiry(t *testing.T) {
	// Real clock: a receiver long-polling an empty-but-for-in-flight
	// queue must wake when the in-flight lease expires, without a send.
	s := newTestService(nil)
	s.CreateQueue("q")
	s.SendMessage("q", []byte("task"))
	if _, ok, _ := s.ReceiveMessage("q", 50*time.Millisecond); !ok {
		t.Fatal("initial receive failed")
	}
	m, ok, err := s.ReceiveMessageWait("q", time.Minute, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("long poll across expiry: ok=%v err=%v", ok, err)
	}
	if m.Receives != 2 {
		t.Errorf("receives = %d, want 2", m.Receives)
	}
}

func TestLongPollWakesOnFakeClockAdvance(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := newTestService(clock)
	s.CreateQueue("q")
	s.SendMessage("q", []byte("task"))
	if _, ok, _ := s.ReceiveMessage("q", 10*time.Second); !ok {
		t.Fatal("initial receive failed")
	}
	type result struct {
		m  Message
		ok bool
	}
	got := make(chan result, 1)
	go func() {
		m, ok, err := s.ReceiveMessageWait("q", 10*time.Second, time.Hour)
		if err != nil {
			t.Error(err)
		}
		got <- result{m, ok}
	}()
	time.Sleep(20 * time.Millisecond) // let the poller block
	clock.Advance(11 * time.Second)   // past the visibility timeout
	select {
	case r := <-got:
		if !r.ok {
			t.Fatal("advance past expiry delivered nothing")
		}
		if r.m.Receives != 2 {
			t.Errorf("receives = %d, want 2", r.m.Receives)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on FakeClock advance")
	}
}

func TestLongPollTimesOutEmpty(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	start := time.Now()
	_, ok, err := s.ReceiveMessageWait("q", time.Minute, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("empty queue delivered a message")
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("returned after %v, want ≥ the 30ms wait", d)
	}
}

func TestLongPollDeletedQueueUnblocks(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.ReceiveMessageWait("q", time.Minute, time.Hour)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := s.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNoSuchQueue) {
			t.Errorf("err = %v, want ErrNoSuchQueue", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver stayed blocked on a deleted queue")
	}
}

// ---------------------------------------------------------------------------
// Batch APIs
// ---------------------------------------------------------------------------

func TestBatchSendReceiveDeleteBilledOnce(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	base := s.APIRequestsFor("q") // 1: the create
	bodies := make([][]byte, 10)
	for i := range bodies {
		bodies[i] = []byte{byte(i)}
	}
	ids, err := s.SendMessageBatch("q", bodies)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("ids = %d, want 10", len(ids))
	}
	msgs, err := s.ReceiveMessageBatch("q", time.Minute, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 {
		t.Fatalf("received %d, want 10", len(msgs))
	}
	// All ten are now in flight under distinct receipts.
	seen := map[string]bool{}
	receipts := make([]string, 0, len(msgs))
	for _, m := range msgs {
		if seen[m.ID] {
			t.Errorf("message %s delivered twice in one batch", m.ID)
		}
		seen[m.ID] = true
		receipts = append(receipts, m.ReceiptHandle)
	}
	if v, f, _ := s.ApproximateCount("q"); v != 0 || f != 10 {
		t.Errorf("counts = %d,%d; want 0,10", v, f)
	}
	results, err := s.DeleteMessageBatch("q", receipts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("delete %d: %v", i, r)
		}
	}
	if v, f, _ := s.ApproximateCount("q"); v+f != 0 {
		t.Errorf("queue not empty after batch delete: %d,%d", v, f)
	}
	// send batch + receive batch + delete batch + 2 counts = 5 requests,
	// not 30+: batches bill once.
	if got := s.APIRequestsFor("q") - base; got != 5 {
		t.Errorf("API requests for 10-message batch round trip = %d, want 5", got)
	}
}

func TestBatchSizeLimits(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	if _, err := s.SendMessageBatch("q", nil); !errors.Is(err, ErrBatchSize) {
		t.Errorf("empty send batch: %v", err)
	}
	if _, err := s.SendMessageBatch("q", make([][]byte, MaxBatch+1)); !errors.Is(err, ErrBatchSize) {
		t.Errorf("oversized send batch: %v", err)
	}
	if _, err := s.ReceiveMessageBatch("q", 0, 0, 0); !errors.Is(err, ErrBatchSize) {
		t.Errorf("zero receive batch: %v", err)
	}
	if _, err := s.ReceiveMessageBatch("q", 0, MaxBatch+1, 0); !errors.Is(err, ErrBatchSize) {
		t.Errorf("oversized receive batch: %v", err)
	}
	if _, err := s.DeleteMessageBatch("q", nil); !errors.Is(err, ErrBatchSize) {
		t.Errorf("empty delete batch: %v", err)
	}
	if _, err := s.SendMessageBatch("missing", [][]byte{[]byte("x")}); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("send batch to missing queue: %v", err)
	}
}

func TestBatchDeletePartialFailure(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := newTestService(clock)
	s.CreateQueue("q")
	s.SendMessage("q", []byte("a"))
	s.SendMessage("q", []byte("b"))
	msgs, err := s.ReceiveMessageBatch("q", 10*time.Second, 2, 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("receive batch: %d msgs err=%v", len(msgs), err)
	}
	// Let the first lease expire and redeliver it: its receipt is stale.
	clock.Advance(11 * time.Second)
	m2, ok, _ := s.ReceiveMessage("q", time.Hour)
	if !ok {
		t.Fatal("expired message not redelivered")
	}
	var stale string
	for _, m := range msgs {
		if m.ID == m2.ID {
			stale = m.ReceiptHandle
		}
	}
	fresh := msgs[0].ReceiptHandle
	if msgs[0].ID == m2.ID {
		fresh = msgs[1].ReceiptHandle
	}
	results, err := s.DeleteMessageBatch("q", []string{stale, fresh, m2.ReceiptHandle})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0], ErrStaleReceipt) {
		t.Errorf("stale entry: %v, want ErrStaleReceipt", results[0])
	}
	if results[1] != nil || results[2] != nil {
		t.Errorf("fresh entries: %v, %v", results[1], results[2])
	}
	if v, f, _ := s.ApproximateCount("q"); v+f != 0 {
		t.Errorf("queue holds %d after partial batch delete, want 0", v+f)
	}
}

func TestReceiveBatchVisibilityAndReceipts(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := newTestService(clock)
	s.CreateQueue("q")
	for i := 0; i < 6; i++ {
		s.SendMessage("q", []byte{byte(i)})
	}
	first, err := s.ReceiveMessageBatch("q", 30*time.Second, 4, 0)
	if err != nil || len(first) != 4 {
		t.Fatalf("first batch: %d err=%v", len(first), err)
	}
	second, err := s.ReceiveMessageBatch("q", 30*time.Second, 4, 0)
	if err != nil || len(second) != 2 {
		t.Fatalf("second batch got %d, want the 2 remaining", len(second))
	}
	// After expiry all six come back, each bearing a fresh receipt; the
	// old receipts are rejected.
	clock.Advance(31 * time.Second)
	redelivered := map[string]string{}
	for len(redelivered) < 6 {
		m, ok, err := s.ReceiveMessage("q", time.Hour)
		if err != nil || !ok {
			t.Fatalf("redelivery stalled at %d: ok=%v err=%v", len(redelivered), ok, err)
		}
		redelivered[m.ID] = m.ReceiptHandle
	}
	for _, m := range append(first, second...) {
		if err := s.DeleteMessage("q", m.ReceiptHandle); !errors.Is(err, ErrStaleReceipt) {
			t.Errorf("stale batch receipt for %s accepted: %v", m.ID, err)
		}
		if err := s.DeleteMessage("q", redelivered[m.ID]); err != nil {
			t.Errorf("fresh receipt for %s rejected: %v", m.ID, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

func TestDeleteCompactsAllIndexes(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	const n = 500
	for i := 0; i < n; i++ {
		s.SendMessage("q", []byte{byte(i)})
	}
	for i := 0; i < n; i++ {
		m, ok, err := s.ReceiveMessage("q", time.Hour)
		if err != nil || !ok {
			t.Fatalf("receive %d: ok=%v err=%v", i, ok, err)
		}
		if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	v, f, ids, err := s.storeSizes("q")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 || f != 0 || ids != 0 {
		t.Errorf("indexes after deleting everything = visible %d, inflight %d, ids %d; want 0,0,0", v, f, ids)
	}
	// Counts and billing stay exact after heavy churn.
	if vis, inf, _ := s.ApproximateCount("q"); vis != 0 || inf != 0 {
		t.Errorf("ApproximateCount = %d,%d after compaction", vis, inf)
	}
	s.SendMessage("q", []byte("fresh"))
	if vis, _, _ := s.ApproximateCount("q"); vis != 1 {
		t.Errorf("fresh message invisible after compaction: visible=%d", vis)
	}
	// create + n sends + n receives + n deletes + 2 counts + 1 send.
	if got := s.APIRequestsFor("q"); got != int64(1+3*n+2+1) {
		t.Errorf("APIRequestsFor = %d, want %d", got, 1+3*n+2+1)
	}
}

// ---------------------------------------------------------------------------
// Body aliasing contract
// ---------------------------------------------------------------------------

func TestReceiveHandsOutStoredBodyWithoutCopy(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := newTestService(clock)
	s.CreateQueue("q")
	sent := []byte("original")
	s.SendMessage("q", sent)
	// The send-side defensive copy still protects the store from the
	// sender mutating its buffer afterwards.
	sent[0] = 'X'
	m1, _, _ := s.ReceiveMessage("q", 10*time.Second)
	if string(m1.Body) != "original" {
		t.Fatalf("stored body = %q; send-side copy lost", m1.Body)
	}
	clock.Advance(11 * time.Second)
	m2, ok, _ := s.ReceiveMessage("q", 10*time.Second)
	if !ok {
		t.Fatal("redelivery failed")
	}
	// Both deliveries alias the single stored copy: no per-receive copy.
	if &m1.Body[0] != &m2.Body[0] {
		t.Error("redelivery returned a fresh copy; receive path should hand out the stored slice")
	}
}

// ---------------------------------------------------------------------------
// Concurrency: many queues, all operations, run with -race
// ---------------------------------------------------------------------------

func TestConcurrentQueuesAllOps(t *testing.T) {
	s := NewService(Config{Seed: 9})
	const queues = 8
	const perQueue = 120
	var wg sync.WaitGroup
	for qi := 0; qi < queues; qi++ {
		name := fmt.Sprintf("q%d", qi)
		if err := s.CreateQueue(name); err != nil {
			t.Fatal(err)
		}
		wg.Add(3)
		// Producer: mixed single and batch sends.
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perQueue; i += 4 {
				if _, err := s.SendMessageBatch(name, [][]byte{{1}, {2}, {3}, {4}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
		// Consumer: long-poll batches, renew one lease, delete the rest.
		go func(name string) {
			defer wg.Done()
			drained := 0
			for drained < perQueue {
				msgs, err := s.ReceiveMessageBatch(name, time.Minute, 8, 20*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				for i, m := range msgs {
					if i == 0 {
						if err := s.ChangeVisibility(name, m.ReceiptHandle, time.Minute); err != nil {
							t.Error(err)
							return
						}
					}
					if err := s.DeleteMessage(name, m.ReceiptHandle); err != nil {
						t.Error(err)
						return
					}
				}
				drained += len(msgs)
			}
		}(name)
		// Observer: counts and billing reads race with the traffic.
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perQueue/4; i++ {
				if _, _, err := s.ApproximateCount(name); err != nil {
					t.Error(err)
					return
				}
				s.APIRequestsFor(name)
				s.APIRequests()
			}
		}(name)
	}
	wg.Wait()
	for qi := 0; qi < queues; qi++ {
		name := fmt.Sprintf("q%d", qi)
		if v, f, _ := s.ApproximateCount(name); v+f != 0 {
			t.Errorf("%s holds %d messages after drain", name, v+f)
		}
	}
}

func TestCreateQueueEmptyNameNotBilled(t *testing.T) {
	s := newTestService(nil)
	base := s.APIRequests()
	if err := s.CreateQueue(""); !errors.Is(err, ErrEmptyQueueName) {
		t.Fatalf("empty create: %v", err)
	}
	if got := s.APIRequests() - base; got != 0 {
		t.Errorf("rejected create billed %d requests, want 0", got)
	}
	if got := s.APIRequestsFor(""); got != 0 {
		t.Errorf(`apiByQueue[""] = %d, want no such entry`, got)
	}
}
