package queue

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
)

func durConfig(store *blob.Store, clk Clock, key string) Config {
	return Config{
		Clock: clk,
		Seed:  42,
		Durability: &Durability{
			Store:  store,
			Bucket: "queue-journal",
			Key:    key,
		},
	}
}

// A durable service recovered from its journal reproduces exact state:
// depths, in-flight leases, live receipt handles, delivery counts, and
// the message-ID counter.
func TestDurableRecoverExactState(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(store, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := s.SendMessage("q", []byte(fmt.Sprintf("task-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m1, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	m2, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	if err := s.DeleteMessage("q", m2.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if err := s.ChangeVisibility("q", m1.ReceiptHandle, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Halt() // SIGKILL: in-memory state is now unreachable

	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 4 || inf != 1 {
		t.Fatalf("recovered depth = %d/%d (err %v), want 4 visible / 1 in flight", vis, inf, err)
	}
	// The receipt issued by the dead service is live on the recovered one.
	if err := r.DeleteMessage("q", m1.ReceiptHandle); err != nil {
		t.Errorf("receipt did not survive recovery: %v", err)
	}
	// The ID counter continues: no collision with pre-crash messages.
	newID, err := r.SendMessage("q", []byte("post-crash"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == newID {
			t.Fatalf("recovered service reissued message ID %s", newID)
		}
	}
	// Never-delivered survivors report their first delivery.
	msgs, err := r.ReceiveMessageBatch("q", time.Minute, MaxBatch, 0)
	if err != nil || len(msgs) != 5 {
		t.Fatalf("drained %d messages (err %v), want 5", len(msgs), err)
	}
	for _, m := range msgs {
		if m.Receives != 1 {
			t.Errorf("message %s recovered with %d deliveries, want 1", m.ID, m.Receives)
		}
	}
}

// Delivery counts survive recovery: a message received before the
// crash reports receives+1 when redelivered after it.
func TestDurableRecoverPreservesDeliveryCounts(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(store, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("poison")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok || m.Receives != 1 {
		t.Fatalf("first delivery: %v ok=%v receives=%d", err, ok, m.Receives)
	}
	s.Halt()

	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute) // expire the pre-crash lease
	m, ok, err = r.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("redelivery: %v ok=%v", err, ok)
	}
	if m.Receives != 2 {
		t.Errorf("redelivery count = %d, want 2 (pre-crash delivery lost)", m.Receives)
	}
}

// Durable services reject traffic until Recover has claimed the
// journal, and reject a second Recover.
func TestDurableRequiresRecover(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := NewService(durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0"))
	if err := s.CreateQueue("q"); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("pre-Recover create: %v, want ErrNotRecovered", err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err == nil {
		t.Fatal("second Recover accepted")
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
}

// Snapshots bound replay: after many operations the journal holds a
// snapshot plus fewer than SnapshotEvery records, and recovery from it
// is still exact.
func TestDurableSnapshotBoundsReplay(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	cfg := durConfig(store, clk, "shard-0")
	cfg.Durability.SnapshotEvery = 8
	s := NewService(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.SendMessage("q", []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok, err := s.ReceiveMessage("q", time.Minute)
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.dur.log.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshot == nil {
		t.Fatal("no snapshot after 60+ journaled operations")
	}
	if len(v.Entries) >= 8 {
		t.Errorf("replay tail holds %d records, want < 8", len(v.Entries))
	}
	s.Halt()
	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 30 || inf != 0 {
		t.Fatalf("recovered depth = %d/%d (err %v), want 30/0", vis, inf, err)
	}
}

// Duplicate deliveries (DuplicateProb) journal and fold correctly: the
// message stays visible with its rotated receipt.
func TestDurableRecoverDuplicateDelivery(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	cfg := durConfig(store, clk, "shard-0")
	cfg.DuplicateProb = 1.0 // every delivery is a duplicate
	s := NewService(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("dup")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatal(err)
	}
	s.Halt()

	r := NewService(func() Config { c := durConfig(store, clk, "shard-0"); c.DuplicateProb = 1.0; return c }())
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 1 || inf != 0 {
		t.Fatalf("recovered depth = %d/%d (err %v), want 1/0 (duplicate stays visible)", vis, inf, err)
	}
	if err := r.DeleteMessage("q", m.ReceiptHandle); err != nil {
		t.Errorf("duplicate's receipt did not survive recovery: %v", err)
	}
}

// An empty receive poll appends nothing: only accepted mutations reach
// the journal.
func TestDurableEmptyReceiveNotJournaled(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := NewService(durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	_, seenBefore, err := s.dur.log.Head()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.ReceiveMessage("q", time.Minute); err != nil || ok {
		t.Fatalf("receive on empty queue: %v ok=%v", err, ok)
	}
	if err := s.DeleteMessage("q", "bogus"); !errors.Is(err, ErrStaleReceipt) {
		t.Fatalf("bogus delete: %v", err)
	}
	_, seenAfter, err := s.dur.log.Head()
	if err != nil {
		t.Fatal(err)
	}
	if seenAfter != seenBefore {
		t.Errorf("journal grew %d bytes on no-op operations", seenAfter-seenBefore)
	}
}

// A mutation racing DeleteQueue must not journal after the delq
// record: folding is strict, so a late opDelete/opVisibility/opPurge
// against the deleted queue would poison the journal and fail every
// later Recover (and follower fold). The race is simulated
// deterministically: the queue state a concurrent caller resolved
// before the delete is re-exposed after DeleteQueue completes, which
// is indistinguishable, from the operation's point of view, from
// having resolved it just before the delete landed.
func TestDurableOpsRacingDeleteQueueDoNotPoisonJournal(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(store, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	q, err := s.getQueue("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.queues["q"] = q // the dead state a racing caller still holds
	s.mu.Unlock()
	if err := s.DeleteMessage("q", m.ReceiptHandle); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("delete racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	if _, err := s.DeleteMessageBatch("q", []string{m.ReceiptHandle}); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("batch delete racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	if err := s.ChangeVisibility("q", m.ReceiptHandle, time.Minute); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("visibility change racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	if err := s.Purge("q"); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("purge racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	s.mu.Lock()
	delete(s.queues, "q")
	s.mu.Unlock()
	s.Halt()
	// The proof: the journal still folds. A record journaled after the
	// delq would fail Recover with "<op> on unknown queue" forever.
	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatalf("journal poisoned by mutation racing DeleteQueue: %v", err)
	}
}

// Halt is SIGKILL: every operation fails with ErrHalted, including long
// polls already blocked.
func TestHaltFailsOperationsAndWakesPolls(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := NewService(durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	pollErr := make(chan error, 1)
	go func() {
		_, _, err := s.ReceiveMessageWait("q", time.Minute, 30*time.Second)
		pollErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the poll block
	if err := s.Ping(); err != nil {
		t.Fatalf("pre-halt ping: %v", err)
	}
	s.Halt()
	select {
	case err := <-pollErr:
		if !errors.Is(err, ErrHalted) {
			t.Errorf("blocked poll woke with %v, want ErrHalted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked long poll did not wake on Halt")
	}
	if _, err := s.SendMessage("q", []byte("x")); !errors.Is(err, ErrHalted) {
		t.Errorf("send after halt: %v", err)
	}
	if err := s.Ping(); !errors.Is(err, ErrHalted) {
		t.Errorf("ping after halt: %v", err)
	}
}

// Halt works on ephemeral services too (no Durability).
func TestHaltEphemeralService(t *testing.T) {
	s := NewService(Config{Clock: NewFakeClock(time.Unix(1000, 0))})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	s.Halt()
	if _, _, err := s.ReceiveMessage("q", 0); !errors.Is(err, ErrHalted) {
		t.Errorf("receive after halt: %v", err)
	}
}

// A follower replays the primary's journal with bounded lag — including
// across the primary's snapshot truncations — and Promote hands back a
// service with the primary's exact state, receipts intact, journaling
// onward under the same key.
func TestFollowerReplicatesAndPromotes(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	cfg := durConfig(store, clk, "shard-0")
	cfg.Durability.SnapshotEvery = 8 // force epoch changes under the follower
	p := NewService(cfg)
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(durConfig(store, clk, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	var held Message
	for i := 0; i < 30; i++ {
		if _, err := p.SendMessage("q", []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := f.CatchUp(); err != nil {
				t.Fatalf("catch-up at %d: %v", i, err)
			}
		}
	}
	m, ok, err := p.ReceiveMessage("q", time.Hour)
	if err != nil || !ok {
		t.Fatal(err)
	}
	held = m
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	lag, err := f.Lag()
	if err != nil || lag != 0 {
		t.Fatalf("lag after catch-up = %d (err %v), want 0", lag, err)
	}
	fv, fi, err := f.Service().QueueDepth("q")
	if err != nil || fv != 29 || fi != 1 {
		t.Fatalf("follower depth = %d/%d (err %v), want 29/1", fv, fi, err)
	}

	p.Halt() // primary dies holding one lease
	promoted, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	// The lease the dead primary issued is deletable on the promoted service.
	if err := promoted.DeleteMessage("q", held.ReceiptHandle); err != nil {
		t.Errorf("receipt did not survive promotion: %v", err)
	}
	// The promoted service journals under the same key: a cold recovery
	// sees its post-promotion writes.
	if _, err := promoted.SendMessage("q", []byte("after-failover")); err != nil {
		t.Fatal(err)
	}
	promoted.Halt()
	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 30 || inf != 0 {
		t.Fatalf("post-failover recovery depth = %d/%d (err %v), want 30/0", vis, inf, err)
	}
	if _, err := f.Promote(); err == nil {
		t.Error("second Promote accepted")
	}
}

// Follower.Start polls in the background until promoted.
func TestFollowerStartPolls(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	p := NewService(durConfig(store, clk, "shard-0"))
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(durConfig(store, clk, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(5 * time.Millisecond)
	defer f.Close()
	if err := p.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendMessage("q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if vis, _, err := f.Service().QueueDepth("q"); err == nil && vis == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Capabilities discovers the optional surfaces of an implementation in
// one call: the in-process Service offers all of them.
func TestCapabilitiesDiscovery(t *testing.T) {
	s := NewService(Config{})
	c := Capabilities(s)
	if c.Transfer == nil || c.Depth == nil || c.Recover == nil || c.Ping == nil {
		t.Errorf("Service capabilities = %+v, want Transfer/Depth/Recover/Ping", c)
	}
	if c.Trace != nil {
		t.Error("Service claims TraceScoper; it is a terminal hop")
	}
}

// The id sequence outlives every queue. With SnapshotEvery 1 the last
// snapshot is taken after the only queue was deleted, so it holds no
// queue at all; a service recovered or promoted from it must still mint
// ids the first life never used, and refuse that life's receipts.
func TestRecoveredSequenceOutlivesDeletedQueues(t *testing.T) {
	for _, how := range []string{"Recover", "Promote"} {
		t.Run(how, func(t *testing.T) {
			store := blob.NewStore(blob.Config{})
			cfg := durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0")
			cfg.Durability.SnapshotEvery = 1
			p := NewService(cfg)
			if err := p.Recover(); err != nil {
				t.Fatal(err)
			}
			f, err := NewFollower(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first := lifeOf(t, p, "q", "first")
			if err := p.DeleteQueue("q"); err != nil {
				t.Fatal(err)
			}
			v, err := p.dur.log.Load()
			if err != nil {
				t.Fatal(err)
			}
			if snap, err := decodeSnapshot(v.Snapshot); err != nil || len(snap.Queues) != 0 || len(v.Entries) != 0 {
				t.Fatalf("fixture: the journal is not one snapshot of no queue: %+v, %d records (err %v)", snap, len(v.Entries), err)
			}
			p.Halt()
			s := NewService(cfg)
			if how == "Recover" {
				err = s.Recover()
			} else {
				s, err = f.Promote()
			}
			if err != nil {
				t.Fatal(err)
			}
			second := lifeOf(t, s, "q", "second")
			refusesFirstLife(t, s, "q", first, second)
		})
	}
}

// Sends on different queues mint from one sequence at once and may be
// journaled in another order than they minted; every id is still
// distinct, and the fold ends at the same sequence as the live service.
func TestConcurrentSendsShareOneSequence(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	cfg := durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0")
	p := NewService(cfg)
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	const queues, batches = 4, 50
	ids := make([][]string, queues)
	var wg sync.WaitGroup
	for i := range ids {
		q := fmt.Sprintf("q%d", i)
		if err := p.CreateQueue(q); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				got, err := p.SendMessageBatch(q, make([][]byte, 1+(b+i)%MaxBatch))
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = append(ids[i], got...)
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, list := range ids {
		for _, id := range list {
			n := id[strings.IndexByte(id, '-')+1:]
			if seen[n] {
				t.Fatalf("sequence number of %s minted twice", id)
			}
			seen[n] = true
		}
	}
	want := stateOf(p)
	if want[""][0].ID != fmt.Sprintf("last=%d", len(seen)) {
		t.Errorf("sequence at %s after minting %d ids", want[""][0].ID, len(seen))
	}
	p.Halt()
	r := NewService(cfg)
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(r); !equalStates(got, want) {
		t.Errorf("recovered state differs from the primary's:\n got %v\nwant %v", got[""], want[""])
	}
}
