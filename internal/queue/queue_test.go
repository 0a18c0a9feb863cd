package queue

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestService(clock Clock) *Service {
	return NewService(Config{Clock: clock, Seed: 1})
}

func TestCreateSendReceiveDelete(t *testing.T) {
	s := newTestService(nil)
	if err := s.CreateQueue("tasks"); err != nil {
		t.Fatal(err)
	}
	id, err := s.SendMessage("tasks", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Error("empty message id")
	}
	m, ok, err := s.ReceiveMessage("tasks", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: ok=%v err=%v", ok, err)
	}
	if string(m.Body) != "hello" {
		t.Errorf("body = %q", m.Body)
	}
	if m.Receives != 1 {
		t.Errorf("receives = %d, want 1", m.Receives)
	}
	if err := s.DeleteMessage("tasks", m.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.ReceiveMessage("tasks", time.Minute); ok {
		t.Error("deleted message should not reappear")
	}
}

func TestQueueLifecycleErrors(t *testing.T) {
	s := newTestService(nil)
	if err := s.CreateQueue(""); err != ErrEmptyQueueName {
		t.Errorf("empty name: %v", err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != ErrQueueExists {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := s.SendMessage("missing", nil); err != ErrNoSuchQueue {
		t.Errorf("send to missing: %v", err)
	}
	if _, _, err := s.ReceiveMessage("missing", 0); err != ErrNoSuchQueue {
		t.Errorf("receive from missing: %v", err)
	}
	if err := s.DeleteQueue("missing"); err != ErrNoSuchQueue {
		t.Errorf("delete missing: %v", err)
	}
	if err := s.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
}

func TestVisibilityTimeoutReappearance(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	s := newTestService(clock)
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("task")); err != nil {
		t.Fatal(err)
	}
	m1, ok, _ := s.ReceiveMessage("q", 30*time.Second)
	if !ok {
		t.Fatal("first receive failed")
	}
	// Hidden while the timeout is pending.
	if _, ok, _ := s.ReceiveMessage("q", 30*time.Second); ok {
		t.Fatal("message should be invisible")
	}
	clock.Advance(31 * time.Second)
	m2, ok, _ := s.ReceiveMessage("q", 30*time.Second)
	if !ok {
		t.Fatal("message should reappear after visibility timeout")
	}
	if m2.ID != m1.ID {
		t.Errorf("different message reappeared: %s vs %s", m2.ID, m1.ID)
	}
	if m2.Receives != 2 {
		t.Errorf("receives = %d, want 2", m2.Receives)
	}
	// The first receipt handle is now stale.
	if err := s.DeleteMessage("q", m1.ReceiptHandle); err != ErrStaleReceipt {
		t.Errorf("stale receipt delete: %v, want ErrStaleReceipt", err)
	}
	// The fresh handle works.
	if err := s.DeleteMessage("q", m2.ReceiptHandle); err != nil {
		t.Errorf("fresh receipt delete: %v", err)
	}
}

func TestChangeVisibilityExtendsOwnership(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := newTestService(clock)
	s.CreateQueue("q")
	s.SendMessage("q", []byte("long task"))
	m, _, _ := s.ReceiveMessage("q", 10*time.Second)
	if err := s.ChangeVisibility("q", m.ReceiptHandle, time.Hour); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Minute)
	if _, ok, _ := s.ReceiveMessage("q", 0); ok {
		t.Error("extended message should stay invisible")
	}
	clock.Advance(31 * time.Minute)
	if _, ok, _ := s.ReceiveMessage("q", 0); !ok {
		t.Error("message should reappear after extension expires")
	}
	if err := s.ChangeVisibility("q", "bogus", time.Minute); err != ErrStaleReceipt {
		t.Errorf("bogus handle: %v", err)
	}
}

func TestApproximateCount(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := newTestService(clock)
	s.CreateQueue("q")
	for i := 0; i < 5; i++ {
		s.SendMessage("q", []byte{byte(i)})
	}
	v, f, err := s.ApproximateCount("q")
	if err != nil || v != 5 || f != 0 {
		t.Fatalf("counts = %d,%d err=%v; want 5,0", v, f, err)
	}
	s.ReceiveMessage("q", time.Minute)
	s.ReceiveMessage("q", time.Minute)
	v, f, _ = s.ApproximateCount("q")
	if v != 3 || f != 2 {
		t.Errorf("counts = %d,%d; want 3,2", v, f)
	}
	if _, _, err := s.ApproximateCount("nope"); err != ErrNoSuchQueue {
		t.Errorf("missing queue: %v", err)
	}
}

func TestPurge(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	s.SendMessage("q", []byte("a"))
	s.SendMessage("q", []byte("b"))
	if err := s.Purge("q"); err != nil {
		t.Fatal(err)
	}
	if v, f, _ := s.ApproximateCount("q"); v+f != 0 {
		t.Errorf("queue not empty after purge: %d,%d", v, f)
	}
}

func TestUnorderedDelivery(t *testing.T) {
	s := NewService(Config{Seed: 42})
	s.CreateQueue("q")
	const n = 64
	for i := 0; i < n; i++ {
		s.SendMessage("q", []byte(fmt.Sprintf("%d", i)))
	}
	inOrder := true
	prev := -1
	for i := 0; i < n; i++ {
		m, ok, _ := s.ReceiveMessage("q", time.Hour)
		if !ok {
			t.Fatalf("receive %d failed", i)
		}
		var v int
		fmt.Sscanf(string(m.Body), "%d", &v)
		if v < prev {
			inOrder = false
		}
		prev = v
	}
	if inOrder {
		t.Error("delivery was perfectly FIFO; expected SQS-style weak ordering")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	s := NewService(Config{Seed: 7, DuplicateProb: 1.0})
	s.CreateQueue("q")
	s.SendMessage("q", []byte("dup"))
	m1, ok1, _ := s.ReceiveMessage("q", time.Hour)
	m2, ok2, _ := s.ReceiveMessage("q", time.Hour)
	if !ok1 || !ok2 {
		t.Fatal("with DuplicateProb=1 both receives must deliver")
	}
	if m1.ID != m2.ID {
		t.Error("duplicates should be the same message")
	}
}

// Property: a message that is received but never deleted is always
// eventually redelivered; total successful deletes never exceed sends.
func TestQuickAtLeastOnce(t *testing.T) {
	f := func(nMsgs uint8, timeoutSecs uint8) bool {
		n := int(nMsgs)%20 + 1
		vis := time.Duration(int(timeoutSecs)%30+1) * time.Second
		clock := NewFakeClock(time.Unix(0, 0))
		s := NewService(Config{Clock: clock, Seed: int64(nMsgs)})
		s.CreateQueue("q")
		for i := 0; i < n; i++ {
			s.SendMessage("q", []byte{byte(i)})
		}
		// Receive everything without deleting.
		got := 0
		for {
			_, ok, _ := s.ReceiveMessage("q", vis)
			if !ok {
				break
			}
			got++
		}
		if got != n {
			return false
		}
		// After the timeout everything must be visible again.
		clock.Advance(vis + time.Second)
		v, _, _ := s.ApproximateCount("q")
		return v == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReceiversNoLostNoDoubleDelete(t *testing.T) {
	s := NewService(Config{Seed: 3})
	s.CreateQueue("q")
	const n = 200
	for i := 0; i < n; i++ {
		s.SendMessage("q", []byte(fmt.Sprintf("m%d", i)))
	}
	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, ok, err := s.ReceiveMessage("q", time.Hour)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
					t.Errorf("delete: %v", err)
				}
				mu.Lock()
				seen[m.ID]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("saw %d distinct messages, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("message %s delivered %d times with hour-long visibility", id, c)
		}
	}
}

func TestAPIRequestAccounting(t *testing.T) {
	s := newTestService(nil)
	base := s.APIRequests()
	s.CreateQueue("q")
	s.SendMessage("q", []byte("x"))
	s.ReceiveMessage("q", time.Minute)
	s.ApproximateCount("q")
	if got := s.APIRequests() - base; got != 4 {
		t.Errorf("API requests = %d, want 4", got)
	}
}

func TestListQueuesSorted(t *testing.T) {
	s := newTestService(nil)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.CreateQueue(n)
	}
	got := s.ListQueues()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ListQueues = %v, want %v", got, want)
		}
	}
}

func TestRealClockAdvances(t *testing.T) {
	c := RealClock{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Error("real clock went backwards")
	}
}

func TestPurgeAndDeleteMissingQueue(t *testing.T) {
	s := newTestService(nil)
	if err := s.Purge("ghost"); err != ErrNoSuchQueue {
		t.Errorf("purge ghost: %v", err)
	}
	if err := s.DeleteMessage("ghost", "r"); err != ErrNoSuchQueue {
		t.Errorf("delete in ghost: %v", err)
	}
	if err := s.ChangeVisibility("ghost", "r", time.Minute); err != ErrNoSuchQueue {
		t.Errorf("change visibility in ghost: %v", err)
	}
}

func TestDeleteMessageTwice(t *testing.T) {
	s := newTestService(nil)
	s.CreateQueue("q")
	s.SendMessage("q", []byte("x"))
	m, _, _ := s.ReceiveMessage("q", time.Minute)
	if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteMessage("q", m.ReceiptHandle); err != ErrStaleReceipt {
		t.Errorf("second delete: %v", err)
	}
}

func TestAPIRequestsAttributedPerQueue(t *testing.T) {
	s := NewService(Config{})
	if err := s.CreateQueue("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReceiveMessage("a", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApproximateCount("b"); err != nil {
		t.Fatal(err)
	}
	// a: create + send + receive; b: create + count.
	if got := s.APIRequestsFor("a"); got != 3 {
		t.Errorf("APIRequestsFor(a) = %d, want 3", got)
	}
	if got := s.APIRequestsFor("b"); got != 2 {
		t.Errorf("APIRequestsFor(b) = %d, want 2", got)
	}
	if got := s.APIRequests(); got != 5 {
		t.Errorf("APIRequests = %d, want 5", got)
	}
}

// lifeOf creates q, sends body and receives it: one life of a queue,
// up to a delivery whose receipt the caller holds.
func lifeOf(t *testing.T, s *Service, q, body string) Message {
	t.Helper()
	if err := s.CreateQueue(q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage(q, []byte(body)); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage(q, time.Hour)
	if err != nil || !ok || string(m.Body) != body {
		t.Fatalf("receive in the %s life: %+v ok=%v err=%v", body, m, ok, err)
	}
	return m
}

// refusesFirstLife checks that a receipt from a queue's first life
// neither deletes nor re-leases anything in its second, whose one
// message is still there.
func refusesFirstLife(t *testing.T, s *Service, q string, first, second Message) {
	t.Helper()
	if first.ID == second.ID || first.ReceiptHandle == second.ReceiptHandle {
		t.Errorf("both lives minted %s / %s", second.ID, second.ReceiptHandle)
	}
	if err := s.ChangeVisibility(q, first.ReceiptHandle, 0); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("first life's receipt %s re-leased a second-life message: %v", first.ReceiptHandle, err)
	}
	if err := s.DeleteMessage(q, first.ReceiptHandle); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("first life's receipt %s deleted a second-life message: %v", first.ReceiptHandle, err)
	}
	if vis, inf, err := s.ApproximateCount(q); err != nil || vis != 0 || inf != 1 {
		t.Errorf("second life holds %d visible / %d in flight (err %v), want its one leased message", vis, inf, err)
	}
	if err := s.DeleteMessage(q, second.ReceiptHandle); err != nil {
		t.Errorf("second life's own receipt refused: %v", err)
	}
}

// A receipt names one message for good: a queue deleted and recreated
// under its old name mints ids its first life never used, so a receipt
// the first life handed out is stale in the second.
func TestRecreatedQueueRefusesFirstLifeReceipts(t *testing.T) {
	s := newTestService(nil)
	first := lifeOf(t, s, "q", "first")
	if err := s.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	second := lifeOf(t, s, "q", "second")
	refusesFirstLife(t, s, "q", first, second)
}

// Leases taken together lapse together and come back in id order, the
// order their messages arrived in — also where ids cross a power of ten.
func TestLapsedBatchReturnsInIDOrder(t *testing.T) {
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	s := newTestService(clk)
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	var sent []string
	for _, n := range []int{MaxBatch, 1} {
		ids, err := s.SendMessageBatch("q", make([][]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, ids...)
	}
	for leased := 0; leased < len(sent); {
		msgs, err := s.ReceiveMessageBatch("q", time.Minute, MaxBatch, 0)
		if err != nil || len(msgs) == 0 {
			t.Fatalf("leased %d of %d, then %d (err %v)", leased, len(sent), len(msgs), err)
		}
		leased += len(msgs)
	}
	clk.Advance(time.Minute)
	if vis, _, err := s.ApproximateCount("q"); err != nil || vis != len(sent) {
		t.Fatalf("%d visible after the leases lapsed (err %v), want %d", vis, err, len(sent))
	}
	var got []string
	for _, m := range s.captureState().Queues[0].Visible {
		got = append(got, m.ID)
	}
	if !slices.Equal(got, sent) {
		t.Errorf("lapsed leases came back as %v, want %v", got, sent)
	}
}
