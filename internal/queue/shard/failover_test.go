package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
)

// durableShard builds a recovered durable service journaling under the
// given key.
func durableShard(t *testing.T, store *blob.Store, key string, seed int64) *queue.Service {
	t.Helper()
	s := queue.NewService(queue.Config{
		Seed: seed,
		Durability: &queue.Durability{
			Store:  store,
			Bucket: "shard-journal",
			Key:    key,
		},
	})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s
}

// Failover swaps the promoted follower in under the same shard id:
// receipts issued by the dead primary stay routable and no
// acknowledged message is lost.
func TestFailoverPreservesReceiptsAndMessages(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	r := NewRouter(Config{})
	defer r.Close()
	primary := durableShard(t, store, "shard-s0", 1)
	if err := r.AddShard("s0", primary); err != nil {
		t.Fatal(err)
	}
	follower, err := queue.NewFollower(queue.Config{
		Seed: 1,
		Durability: &queue.Durability{
			Store: store, Bucket: "shard-journal", Key: "shard-s0",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetStandby("s0", follower.PromoteAPI); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(r.Standbys(), "s0") {
		t.Fatal("standby not registered")
	}

	if err := r.CreateQueue("job/tasks"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := r.SendMessage("job/tasks", []byte(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m, ok, err := r.ReceiveMessage("job/tasks", time.Hour)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}

	primary.Halt() // shard process dies holding one lease
	if _, _, err := r.ReceiveMessage("job/tasks", time.Hour); !errors.Is(err, queue.ErrHalted) {
		t.Fatalf("receive on dead shard: %v, want ErrHalted", err)
	}
	if err := r.Failover("s0"); err != nil {
		t.Fatal(err)
	}
	// The pre-crash receipt routes to the promoted backend and is live.
	if err := r.DeleteMessage("job/tasks", m.ReceiptHandle); err != nil {
		t.Errorf("pre-crash receipt after failover: %v", err)
	}
	vis, inf, err := r.ApproximateCount("job/tasks")
	if err != nil || vis != 7 || inf != 0 {
		t.Fatalf("post-failover depth = %d/%d (err %v), want 7/0", vis, inf, err)
	}
	// Traffic flows on the same shard id.
	drained := 0
	for {
		m, ok, err := r.ReceiveMessage("job/tasks", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		drained++
		if err := r.DeleteMessage("job/tasks", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	if drained != 7 {
		t.Errorf("drained %d messages after failover, want 7", drained)
	}
}

// Failover without a standby is an explicit error, not a silent no-op.
func TestFailoverRequiresStandby(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{})); err != nil {
		t.Fatal(err)
	}
	if err := r.Failover("s0"); !errors.Is(err, ErrNoStandby) {
		t.Errorf("failover without standby: %v, want ErrNoStandby", err)
	}
	if err := r.Failover("nope"); !errors.Is(err, ErrNoSuchShard) {
		t.Errorf("failover of unknown shard: %v, want ErrNoSuchShard", err)
	}
	if err := r.SetStandby("nope", func() (queue.API, error) { return nil, nil }); !errors.Is(err, ErrNoSuchShard) {
		t.Errorf("standby for unknown shard: %v, want ErrNoSuchShard", err)
	}
}

// A promotion failure must not consume the standby registration: a
// transient blob error during the final fold leaves the follower
// alive, so a retried Failover promotes it instead of reporting
// ErrNoStandby and stranding the shard.
func TestFailoverRetryableAfterPromotionFailure(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{})); err != nil {
		t.Fatal(err)
	}
	replacement := queue.NewService(queue.Config{})
	calls := 0
	err := r.SetStandby("s0", func() (queue.API, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient blob error")
		}
		return replacement, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Failover("s0"); err == nil {
		t.Fatal("failover with failing promotion reported success")
	}
	if !slices.Contains(r.Standbys(), "s0") {
		t.Fatal("failed promotion consumed the standby registration")
	}
	if err := r.Failover("s0"); err != nil {
		t.Fatalf("retry after transient promotion failure: %v", err)
	}
	if slices.Contains(r.Standbys(), "s0") {
		t.Error("successful promotion left the registration armed")
	}
	if calls != 2 {
		t.Errorf("promotion thunk ran %d times, want 2", calls)
	}
}

// The health loop notices a halted shard and promotes its standby
// without operator involvement.
func TestHealthCheckAutoFailover(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	r := NewRouter(Config{})
	defer r.Close()
	primary := durableShard(t, store, "shard-s0", 1)
	if err := r.AddShard("s0", primary); err != nil {
		t.Fatal(err)
	}
	follower, err := queue.NewFollower(queue.Config{
		Seed: 1,
		Durability: &queue.Durability{
			Store: store, Bucket: "shard-journal", Key: "shard-s0",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	follower.Start(2 * time.Millisecond)
	if err := r.SetStandby("s0", follower.PromoteAPI); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SendMessage("q", []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	r.StartHealthChecks(2 * time.Millisecond)
	primary.Halt()
	deadline := time.Now().Add(5 * time.Second)
	for r.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never failed over the halted shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m, ok, err := r.ReceiveMessage("q", time.Minute)
	if err != nil || !ok || string(m.Body) != "survivor" {
		t.Fatalf("post-failover receive: %v ok=%v body=%q", err, ok, m.Body)
	}
}
