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

// homeGroups finds, for each of the router's n ring shards, a placement
// group homed on it, so a test moves a queue where it wants by Regroup.
func homeGroups(r *Router, n int) map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	home := map[string]string{}
	for i := 0; len(home) < n; i++ {
		group := fmt.Sprintf("g%d", i)
		if owner, _ := r.ring.owner(group); home[owner] == "" {
			home[owner] = group
		}
	}
	return home
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
			g := &rig{t: t, r: NewRouter(Config{}),
				shards: map[string]*parkingShard{"a": newParkingShard(1), "b": newParkingShard(2)}}
			defer g.r.Close()
			for id, s := range g.shards {
				if err := g.r.AddShard(id, s); err != nil {
					t.Fatal(err)
				}
			}
			g.home = homeGroups(g.r, 2)
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

// TestForwarderExitKeepsAResidueAskedForMeanwhile replays on one
// goroutine the interleaving that once stranded a residue. The queue
// moved a → b → a, so the forwarder on a ends its watch (the "old" copy
// is live again); before it lets go, a → c freezes, streams and asks for
// a watch on a — finding a forwarder there, it starts none — and only
// then thaws. A forwarder that decided from the owner it read before the
// thaw would drop the entry and leave whatever is leased on a with nobody
// to forward it. No backend call sits between those steps, so no double
// can hold a real forwarder there; the lease steps are migrate's and
// forward's, in that order.
func TestForwarderExitKeepsAResidueAskedForMeanwhile(t *testing.T) {
	residues := func(rt *route) []string { _, _, _, res := rt.peek(); return res }
	rt := newRoute("a")
	rt.thaw("a")

	// a → b: the first forwarder on a starts its first watch.
	if !rt.freeze("a") || !rt.askWatch("a") {
		t.Fatal("a → b: freeze refused, or a forwarder on a before any move")
	}
	rt.thaw("b")
	seen, done := rt.endWatch("a", 0)
	if done || seen != 1 {
		t.Fatalf("forwarder start: seen %d done %v, want 1 false", seen, done)
	}

	// b → a: the watch on a ends, the forwarder has not let go yet.
	if !rt.freeze("b") || !rt.askWatch("b") {
		t.Fatal("b → a: freeze refused, or b already watched")
	}
	rt.thaw("a")

	// a → c up to the watch; the forwarder's exit lands before the thaw.
	if !rt.freeze("a") {
		t.Fatal("a → c: freeze refused")
	}
	if rt.askWatch("a") {
		t.Fatal("a → c started a second forwarder on a beside the live one")
	}
	if seen, done = rt.endWatch("a", seen); done || seen != 2 {
		t.Fatalf("exit after a → c asked for a watch: seen %d done %v, want 2 false", seen, done)
	}
	rt.thaw("c")
	if res := residues(rt); len(res) != 2 {
		t.Fatalf("residues %v after a → b → a → c, want a and b", res)
	}

	// The watch it owed is over and nothing was asked since: now it goes,
	// and the next move off a starts a forwarder again.
	if _, done = rt.endWatch("a", seen); !done {
		t.Fatal("forwarder kept a residue nobody asked for again")
	}
	if res := residues(rt); len(res) != 1 || res[0] != "b" {
		t.Fatalf("residues %v after the forwarder on a left, want [b]", res)
	}
	if !rt.askWatch("a") {
		t.Fatal("no forwarder started for a residue nobody watches")
	}
}

// TestStragglerOfASecondLifeIsForwarded is the same story end to end, on
// real forwarders and the wall clock: a message leased on a during the
// queue's second life there (a → b → a) and never acknowledged must
// surface on c after a → c, whether the first forwarder on a had already
// let go (a → c starts another) or not (it is asked to look again).
func TestStragglerOfASecondLifeIsForwarded(t *testing.T) {
	const qn = "twice"
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	for i, id := range []string{"a", "b", "c"} {
		if err := r.AddShard(id, queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	home := homeGroups(r, 3)
	move := func(to string) {
		t.Helper()
		if err := r.Regroup(qn, home[to]); err != nil {
			t.Fatal(err)
		}
		if got := r.Owners()[qn]; got != to {
			t.Fatalf("owner %s after regroup, want %s", got, to)
		}
	}
	if err := r.CreateQueue(qn); err != nil {
		t.Fatal(err)
	}
	move("a")
	move("b")
	move("a")
	if _, err := r.SendMessage(qn, []byte("straggler")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.ReceiveMessage(qn, 20*time.Millisecond); err != nil || !ok {
		t.Fatalf("lease on a: ok %v err %v", ok, err)
	}
	move("c")
	for deadline := time.Now().Add(5 * time.Second); ; {
		m, ok, err := r.ReceiveMessageWait(qn, time.Minute, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("receive while waiting for the straggler: %v", err)
		}
		if ok {
			if string(m.Body) != "straggler" {
				t.Fatalf("received %q, want the straggler", m.Body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a message leased on a in the queue's second life there was never forwarded")
		}
	}
}
