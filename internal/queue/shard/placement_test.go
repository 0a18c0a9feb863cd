package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
)

// TestGroupedQueuesCoLocate: all queues sharing a placement-group
// prefix land on one shard, for every group, across many groups.
func TestGroupedQueuesCoLocate(t *testing.T) {
	r, _ := newTestRouter(t, 4)
	const jobs = 40
	for i := 0; i < jobs; i++ {
		for _, suffix := range []string{"tasks", "monitor", "dead"} {
			if err := r.CreateQueue(fmt.Sprintf("job-%d/%s", i, suffix)); err != nil {
				t.Fatal(err)
			}
		}
	}
	owners := r.Owners()
	spread := map[string]bool{}
	for i := 0; i < jobs; i++ {
		home := owners[fmt.Sprintf("job-%d/tasks", i)]
		spread[home] = true
		for _, suffix := range []string{"monitor", "dead"} {
			qn := fmt.Sprintf("job-%d/%s", i, suffix)
			if owners[qn] != home {
				t.Errorf("%s on %s, but its group's home is %s", qn, owners[qn], home)
			}
		}
	}
	if len(spread) < 2 {
		t.Errorf("all %d groups on %d shard(s) — grouping collapsed the ring", jobs, len(spread))
	}
}

// addUntilMoved grows the ring until qn leaves its current owner,
// returning the new owner. Ring determinism bounds the attempts.
func addUntilMoved(t *testing.T, r *Router, qn string) string {
	t.Helper()
	before := r.Owners()[qn]
	for i := 0; i < 32; i++ {
		if err := r.AddShard(fmt.Sprintf("grow%d", i), queue.NewService(queue.Config{Seed: int64(100 + i)})); err != nil {
			t.Fatal(err)
		}
		if now := r.Owners()[qn]; now != before {
			return now
		}
	}
	t.Fatalf("queue %s never moved off %s", qn, before)
	return ""
}

// TestMigrationPreservesReceiveCounts: a message with accumulated
// deliveries keeps its count when its queue is drained to a new shard —
// the MaxReceives progress the privileged transfer API exists to
// protect.
func TestMigrationPreservesReceiveCounts(t *testing.T) {
	r, _ := newTestRouter(t, 1)
	qn := queueOwnedBy(t, r, "s0", 16)
	if _, err := r.SendMessage(qn, []byte("poison")); err != nil {
		t.Fatal(err)
	}
	// Two failed delivery attempts: receive, then release the lease.
	for i := 1; i <= 2; i++ {
		m, ok, err := r.ReceiveMessage(qn, time.Minute)
		if err != nil || !ok || m.Receives != i {
			t.Fatalf("delivery %d: ok=%v err=%v receives=%d", i, ok, err, m.Receives)
		}
		if err := r.ChangeVisibility(qn, m.ReceiptHandle, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The message is visible, so the drain streams it.
	addUntilMoved(t, r, qn)
	m, ok, err := r.ReceiveMessage(qn, time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive after migration: ok=%v err=%v", ok, err)
	}
	if m.Receives != 3 {
		t.Errorf("Receives after drain migration = %d, want 3 — delivery count was reset", m.Receives)
	}
}

// TestStragglerForwardPreservesReceiveCounts: a message in flight
// during the migration expires on the old shard and is forwarded by the
// background forwarder — with its count intact.
func TestStragglerForwardPreservesReceiveCounts(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	qn := queueOwnedBy(t, r, "s0", 16)
	if _, err := r.SendMessage(qn, []byte("straggler")); err != nil {
		t.Fatal(err)
	}
	// Two deliveries; the second lease is short and still held when the
	// migration runs, so the message is invisible to the drain.
	if m, ok, err := r.ReceiveMessage(qn, time.Minute); err != nil || !ok {
		t.Fatalf("first delivery: ok=%v err=%v", ok, err)
	} else if err := r.ChangeVisibility(qn, m.ReceiptHandle, 0); err != nil {
		t.Fatal(err)
	}
	if m, ok, err := r.ReceiveMessage(qn, 30*time.Millisecond); err != nil || !ok || m.Receives != 2 {
		t.Fatalf("second delivery: ok=%v err=%v", ok, err)
	}
	addUntilMoved(t, r, qn)
	// The lease expires on s0; the forwarder transfers the message to
	// the new owner where its third delivery keeps counting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, ok, err := r.ReceiveMessageWait(qn, time.Minute, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if m.Receives != 3 {
				t.Errorf("Receives after straggler forward = %d, want 3 — delivery count was reset", m.Receives)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("straggler never forwarded")
		}
	}
}

// TestRegroupMovesQueueToGroupShard: Regroup migrates an ungrouped
// legacy queue onto its group's shard — the migration story for
// namespaces that predate placement groups — and an empty group
// reverts to name-derived placement.
func TestRegroupMovesQueueToGroupShard(t *testing.T) {
	r, _ := newTestRouter(t, 4)
	// The group's home shard is wherever a grouped sibling lands.
	if err := r.CreateQueue("g7/anchor"); err != nil {
		t.Fatal(err)
	}
	home := r.Owners()["g7/anchor"]

	// A legacy queue with backlog, initially placed by its own name.
	if err := r.CreateQueue("legacy-tasks"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 15; k++ {
		if _, err := r.SendMessage("legacy-tasks", []byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Regroup("legacy-tasks", "g7"); err != nil {
		t.Fatal(err)
	}
	if got := r.Owners()["legacy-tasks"]; got != home {
		t.Fatalf("after Regroup owner = %s, want the group home %s", got, home)
	}
	// Backlog survived the regroup migration.
	got := map[string]bool{}
	for len(got) < 15 {
		m, ok, err := r.ReceiveMessage("legacy-tasks", time.Minute)
		if err != nil || !ok {
			t.Fatalf("drained early after regroup: %d/15 (%v)", len(got), err)
		}
		got[string(m.Body)] = true
		if err := r.DeleteMessage("legacy-tasks", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	// The explicit group sticks across topology changes: add shards and
	// confirm the legacy queue follows its group, not its name.
	addUntilMoved(t, r, "g7/anchor")
	if err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}
	owners := r.Owners()
	if owners["legacy-tasks"] != owners["g7/anchor"] {
		t.Errorf("after topology change legacy-tasks on %s, group home %s — explicit group did not stick",
			owners["legacy-tasks"], owners["g7/anchor"])
	}
	// Reverting to the name-derived key works the same way.
	if err := r.Regroup("legacy-tasks", ""); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	want, _ := r.ring.owner(DeriveGroup("legacy-tasks"))
	r.mu.RUnlock()
	if got := r.Owners()["legacy-tasks"]; got != want {
		t.Errorf("after reverting group owner = %s, want name-derived %s", got, want)
	}
}

// TestRegroupErrors: unknown queues and malformed groups are
// sentinel-reported.
func TestRegroupErrors(t *testing.T) {
	r, _ := newTestRouter(t, 2)
	if err := r.Regroup("ghost", "g"); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Errorf("regroup unknown queue: %v, want ErrNoSuchQueue", err)
	}
	if err := r.Regroup("ghost", "job-7/tasks"); !errors.Is(err, ErrBadGroup) {
		t.Errorf("regroup with separator in group: %v, want ErrBadGroup", err)
	}
	// Regrouping onto the current owner is a no-op, not an error.
	if err := r.CreateQueue("steady/q"); err != nil {
		t.Fatal(err)
	}
	if err := r.Regroup("steady/q", "steady"); err != nil {
		t.Errorf("no-op regroup: %v", err)
	}
}

// TestRegroupRebalanceChurn is the serialization stress test: topology
// churn (AddShard/RemoveShard/Rebalance) races regroup churn on the
// same queues while producers and consumers run. Nothing may error
// beyond the expected sentinels, nothing may be lost, and once the
// churn stops the placement must converge: every queue sits on the
// ring owner of its final group.
func TestRegroupRebalanceChurn(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	for i := 0; i < 2; i++ {
		if err := r.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	const queues, perQueue = 6, 30
	for i := 0; i < queues; i++ {
		if err := r.CreateQueue(fmt.Sprintf("churn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	got := make(map[string]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Consumers.
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("churn-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, ok, err := r.ReceiveMessageWait(qn, 10*time.Second, 10*time.Millisecond)
				if err != nil {
					t.Errorf("receive %s: %v", qn, err)
					return
				}
				if ok {
					mu.Lock()
					got[string(m.Body)] = true
					mu.Unlock()
					if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil &&
						!errors.Is(err, queue.ErrStaleReceipt) {
						t.Errorf("delete: %v", err)
					}
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	// Producers.
	var prod sync.WaitGroup
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("churn-%d", i)
		prod.Add(1)
		go func() {
			defer prod.Done()
			for k := 0; k < perQueue; k++ {
				if _, err := r.SendMessage(qn, []byte(fmt.Sprintf("%s/m%d", qn, k))); err != nil {
					t.Errorf("send %s: %v", qn, err)
					return
				}
			}
		}()
	}

	// Regroup churn: every queue's group flips between 4 keys.
	var regroup sync.WaitGroup
	for w := 0; w < 3; w++ {
		regroup.Add(1)
		go func(seed int64) {
			defer regroup.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 30; n++ {
				qn := fmt.Sprintf("churn-%d", rng.Intn(queues))
				group := fmt.Sprintf("flock-%d", rng.Intn(4))
				if err := r.Regroup(qn, group); err != nil {
					t.Errorf("regroup %s -> %s: %v", qn, group, err)
				}
			}
		}(int64(w + 1))
	}
	// Topology churn racing the regroups.
	regroup.Add(1)
	go func() {
		defer regroup.Done()
		for i := 2; i < 6; i++ {
			if err := r.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
				t.Errorf("add s%d: %v", i, err)
			}
			if err := r.Rebalance(); err != nil {
				t.Errorf("rebalance: %v", err)
			}
		}
		if err := r.RemoveShard("s2"); err != nil {
			t.Errorf("remove s2: %v", err)
		}
	}()

	prod.Wait()
	regroup.Wait()

	// Convergence: after a final rebalance every queue sits on the ring
	// owner of its final group.
	if err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}
	owners := r.Owners()
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("churn-%d", i)
		r.mu.RLock()
		rt := r.routes[qn]
		r.mu.RUnlock()
		rt.mu.Lock()
		group := rt.group
		rt.mu.Unlock()
		r.mu.RLock()
		want, _ := r.ring.owner(effectiveGroup(group, qn))
		r.mu.RUnlock()
		if owners[qn] != want {
			t.Errorf("%s (group %q) on %s, ring owner %s — placement did not converge", qn, group, owners[qn], want)
		}
	}

	// Zero loss: every produced body is eventually consumed.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == queues*perQueue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost messages under churn: consumed %d/%d unique bodies", n, queues*perQueue)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestRemoteShardMigrationPreservesCounts: the count-preserving
// transfer works over the wire — a queue drains onto a remote
// (HTTP-backed) shard whose transfer endpoint is provisioned, and the
// delivery count survives. Without the token the fallback re-send
// would reset it.
func TestRemoteShardMigrationPreservesCounts(t *testing.T) {
	const token = "migrate-sekrit"
	remote := queue.NewService(queue.Config{Seed: 7})
	srv := httptest.NewServer(&queue.HTTPHandler{Service: remote, AdminTokens: []string{token}})
	defer srv.Close()

	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	qn := queueOwnedBy(t, r, "s0", 16)
	if _, err := r.SendMessage(qn, []byte("counted")); err != nil {
		t.Fatal(err)
	}
	// Two deliveries, both released back to visible.
	for i := 1; i <= 2; i++ {
		m, ok, err := r.ReceiveMessage(qn, time.Minute)
		if err != nil || !ok || m.Receives != i {
			t.Fatalf("delivery %d: ok=%v err=%v", i, ok, err)
		}
		if err := r.ChangeVisibility(qn, m.ReceiptHandle, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Force the queue onto the remote shard: retire s0.
	if err := r.AddShard("remote", &queue.HTTPClient{BaseURL: srv.URL, AdminToken: token}); err != nil {
		t.Fatal(err)
	}
	if r.Owners()[qn] != "remote" {
		if err := r.RemoveShard("s0"); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Owners()[qn]; got != "remote" {
		t.Fatalf("queue on %s, want the remote shard", got)
	}
	m, ok, err := r.ReceiveMessage(qn, time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive from remote shard: ok=%v err=%v", ok, err)
	}
	if m.Receives != 3 {
		t.Errorf("Receives after wire migration = %d, want 3 — count lost crossing the HTTP boundary", m.Receives)
	}
}
