package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queue"
)

// parkingShard is a queue.API double in front of one shard. A receive it
// was armed to hold parks as a long poll would and, once released,
// answers ErrNoSuchQueue — what a real shard answers a poll that was
// parked on a queue when the queue migrated away and its residue was
// deleted. Everything else, and every receive past the armed ones, goes
// to the real shard.
type parkingShard struct {
	queue.API
	holds   atomic.Int32  // receives still to hold
	parked  chan struct{} // one token per receive that parked
	release chan struct{} // one token releases one parked receive
}

func newParkingShard(seed int64) *parkingShard {
	return &parkingShard{
		API:     queue.NewService(queue.Config{Seed: seed}),
		parked:  make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (p *parkingShard) ReceiveMessageWait(q string, vis, wait time.Duration) (queue.Message, bool, error) {
	if p.holds.Add(-1) < 0 {
		return p.API.ReceiveMessageWait(q, vis, wait)
	}
	p.parked <- struct{}{}
	<-p.release
	return queue.Message{}, false, queue.ErrNoSuchQueue
}

// SetShardWeight is the single-shard reweigh the split/merge churn test
// stages before its Rebalance; production code only reweighs in bulk
// (Autoscaler.apply).
func (r *Router) SetShardWeight(id string, w float64) (bool, error) {
	return r.reweigh(map[string]float64{id: w})
}

// TestParkedReceiveSurvivesMoveAwayAndBack: a live queue's consumer
// never sees ErrNoSuchQueue, however the queue moved while its long poll
// was parked. The double holds the parked poll's ErrNoSuchQueue until
// the test has finished moving the queue, so there is no churn and no
// clock in it.
//
// Away and back (a → b → a) is the case comparing shard ids cannot see:
// the owner after the error equals the owner at dispatch. Three moves
// under one call is the case an attempt cap cannot see: every retry was
// answered ErrNoSuchQueue by a shard the queue had just left.
func TestParkedReceiveSurvivesMoveAwayAndBack(t *testing.T) {
	const qn = "parked"
	type rig struct {
		t      *testing.T
		r      *Router
		shards map[string]*parkingShard
		home   map[string]string // shard id → a placement group homed on it
	}
	arm := func(g *rig, id string) { g.shards[id].holds.Store(1) }
	parked := func(g *rig, id string) { <-g.shards[id].parked }
	release := func(g *rig, id string) { g.shards[id].release <- struct{}{} }
	move := func(g *rig, to string) {
		g.t.Helper()
		if err := g.r.Regroup(qn, g.home[to]); err != nil {
			g.t.Fatal(err)
		}
		if got := g.r.Owners()[qn]; got != to {
			g.t.Fatalf("owner %s after regroup, want %s", got, to)
		}
	}
	for _, tc := range []struct {
		name   string
		script func(g *rig) // runs while the routed receive is parked on a
	}{
		{"away and back", func(g *rig) {
			parked(g, "a")
			move(g, "b")
			move(g, "a")
			release(g, "a")
		}},
		{"three moves under one call", func(g *rig) {
			parked(g, "a")
			arm(g, "b")
			move(g, "b")
			release(g, "a")
			parked(g, "b") // the first retry
			arm(g, "a")
			move(g, "a")
			release(g, "b")
			parked(g, "a") // the second
			move(g, "b")
			release(g, "a")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &rig{t: t, r: NewRouter(Config{}), home: map[string]string{},
				shards: map[string]*parkingShard{"a": newParkingShard(1), "b": newParkingShard(2)}}
			defer g.r.Close()
			for id, s := range g.shards {
				if err := g.r.AddShard(id, s); err != nil {
					t.Fatal(err)
				}
			}
			g.r.mu.RLock()
			for i := 0; len(g.home) < 2; i++ {
				group := fmt.Sprintf("g%d", i)
				if owner, _ := g.r.ring.owner(group); g.home[owner] == "" {
					g.home[owner] = group
				}
			}
			g.r.mu.RUnlock()
			if err := g.r.CreateQueue(qn); err != nil {
				t.Fatal(err)
			}
			move(g, "a")
			if _, err := g.r.SendMessage(qn, []byte("m")); err != nil {
				t.Fatal(err)
			}

			arm(g, "a")
			done := make(chan error, 1)
			go func() {
				m, ok, err := g.r.ReceiveMessageWait(qn, time.Minute, 0)
				if err == nil && ok && string(m.Body) != "m" {
					err = fmt.Errorf("received %q, want the one message sent", m.Body)
				}
				done <- err
			}()
			tc.script(g)
			if err := <-done; err != nil {
				t.Fatalf("receive on a live queue: %v", err)
			}
		})
	}
}
