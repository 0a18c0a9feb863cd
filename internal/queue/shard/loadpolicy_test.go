// Unit tests for the load-aware policy. Decide is a pure function of
// one observation, so every branch — split doubling, merge hysteresis,
// the cooldown, weight nudging — is checkable without running a fleet;
// the Autoscaler lifecycle test then drives the real runner against a
// live router with deterministic ticks.
package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
)

var policyNow = time.Unix(1_700_000_000, 0)

func loadShards(rates ...float64) []ShardLoad {
	out := make([]ShardLoad, len(rates))
	for i, rate := range rates {
		out[i] = ShardLoad{ID: fmt.Sprintf("s%d", i), RatePerSec: rate, Weight: 1}
	}
	return out
}

func TestDecideSplitDoubling(t *testing.T) {
	p := AutoscalePolicy{SplitRate: 100}
	cases := []struct {
		name  string
		group GroupLoad
		want  int // 0 = no split
	}{
		{"hot rate first split", GroupLoad{Group: "g", RatePerSec: 500, Queues: 16}, 2},
		{"hot rate doubles", GroupLoad{Group: "g", RatePerSec: 500, Queues: 16, Subgroups: 2}, 4},
		{"hot backlog alone", GroupLoad{Group: "g", Backlog: 5000, Queues: 16}, 2},
		{"capped by queue count", GroupLoad{Group: "g", RatePerSec: 500, Queues: 5, Subgroups: 4}, 5},
		{"at MaxSubgroups", GroupLoad{Group: "g", RatePerSec: 500, Queues: 16, Subgroups: 8}, 0},
		{"single queue never splits", GroupLoad{Group: "g", RatePerSec: 500, Queues: 1}, 0},
		{"warm group holds", GroupLoad{Group: "g", RatePerSec: 99, Queues: 16}, 0},
		{"pinned never splits", GroupLoad{Group: "g", RatePerSec: 500, Queues: 16, Pinned: true}, 0},
	}
	for _, tc := range cases {
		d := p.Decide(FleetObservation{Now: policyNow, Shards: loadShards(500), Groups: []GroupLoad{tc.group}})
		if got := d.Splits[tc.group.Group]; got != tc.want {
			t.Errorf("%s: Splits[g] = %d, want %d (reason %q)", tc.name, got, tc.want, d.Reason)
		}
	}
}

func TestDecideMergeHysteresis(t *testing.T) {
	// SplitRate 100, SplitBacklog 4096, MergeFraction 0.25: merge only
	// when rate < 25 AND backlog < 1024.
	p := AutoscalePolicy{SplitRate: 100}
	cases := []struct {
		name  string
		group GroupLoad
		merge bool
	}{
		{"cooled", GroupLoad{Group: "g", RatePerSec: 20, Backlog: 100, Queues: 16, Subgroups: 4}, true},
		{"rate in hysteresis band", GroupLoad{Group: "g", RatePerSec: 30, Backlog: 100, Queues: 16, Subgroups: 4}, false},
		{"backlog in hysteresis band", GroupLoad{Group: "g", RatePerSec: 20, Backlog: 2000, Queues: 16, Subgroups: 4}, false},
		{"cooled but not split", GroupLoad{Group: "g", RatePerSec: 20, Backlog: 100, Queues: 16}, false},
	}
	for _, tc := range cases {
		d := p.Decide(FleetObservation{Now: policyNow, Shards: loadShards(20), Groups: []GroupLoad{tc.group}})
		if got := len(d.Merges) == 1; got != tc.merge {
			t.Errorf("%s: Merges = %v, want merge=%v", tc.name, d.Merges, tc.merge)
		}
	}
}

func TestDecideSplitCooldown(t *testing.T) {
	p := AutoscalePolicy{SplitRate: 100, SplitCooldown: 10 * time.Second}
	hot := GroupLoad{Group: "g", RatePerSec: 500, Queues: 16}
	d := p.Decide(FleetObservation{
		Now: policyNow, Shards: loadShards(500), Groups: []GroupLoad{hot},
		LastSplit: policyNow.Add(-time.Second),
	})
	if len(d.Splits) != 0 {
		t.Errorf("split fired inside cooldown: %v", d.Splits)
	}
	d = p.Decide(FleetObservation{
		Now: policyNow, Shards: loadShards(500), Groups: []GroupLoad{hot},
		LastSplit: policyNow.Add(-11 * time.Second),
	})
	if d.Splits["g"] != 2 {
		t.Errorf("split suppressed after cooldown expired: %v (reason %q)", d.Splits, d.Reason)
	}
}

func TestDecideWeightNudges(t *testing.T) {
	var p AutoscalePolicy

	// s0 serves 3x the load of s1: its arc shrinks, s1's grows (bounded
	// to 2x per tick).
	d := p.Decide(FleetObservation{Now: policyNow, Shards: loadShards(300, 100)})
	if w := d.Weights["s0"]; w >= 1 || w < 0.5 {
		t.Errorf("hot shard weight = %v, want in [0.5, 1)", d.Weights["s0"])
	}
	if w := d.Weights["s1"]; w != 2 {
		t.Errorf("cool shard weight = %v, want the 2x bound", w)
	}

	// Near-equal load is inside the deadband: no churn.
	d = p.Decide(FleetObservation{Now: policyNow, Shards: loadShards(110, 90)})
	if len(d.Weights) != 0 {
		t.Errorf("deadband breached for near-equal load: %v", d.Weights)
	}

	// A silent shard's rate is floored, so its arc grows boundedly
	// instead of exploding toward the clamp.
	d = p.Decide(FleetObservation{Now: policyNow, Shards: loadShards(1000, 0)})
	if w := d.Weights["s1"]; w != 2 {
		t.Errorf("silent shard weight = %v, want the bounded 2", w)
	}

	// One shard has nothing to balance against.
	d = p.Decide(FleetObservation{Now: policyNow, Shards: loadShards(1000)})
	if len(d.Weights) != 0 {
		t.Errorf("single-shard fleet nudged weights: %v", d.Weights)
	}
}

// TestAutoscalerLifecycle drives the real runner against a live router
// on a fixed fleet, the way paperbench's queueskew experiment does:
// producer/consumer rounds on a hot group, one Tick after each (a
// synthetic second apart), split the group across sub-arcs; idle ticks
// merge it back. The shard count never changes, and every message sent
// is received.
func TestAutoscalerLifecycle(t *testing.T) {
	const (
		shards = 4
		queues = 8
	)
	r := NewRouter(Config{})
	defer r.Close()
	for i := 0; i < shards; i++ {
		if err := r.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < queues; q++ {
		if err := r.CreateQueue(fmt.Sprintf("hot/q%d", q)); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAutoscaler(r, AutoscalePolicy{SplitRate: 50, SplitCooldown: time.Second, Window: 1})

	var mu sync.Mutex
	sent, received := map[string]bool{}, map[string]bool{}
	// round runs one producer/consumer pair per hot queue: each cycle
	// sends a fresh body, receives one and deletes it.
	round := func(n int) {
		var wg sync.WaitGroup
		for q := 0; q < queues; q++ {
			wg.Add(1)
			go func(qn string) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					body := fmt.Sprintf("%s/%d/%d", qn, n, i)
					if _, err := r.SendMessage(qn, []byte(body)); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					sent[body] = true
					mu.Unlock()
					m, ok, err := r.ReceiveMessageWait(qn, time.Hour, 50*time.Millisecond)
					if err != nil || !ok {
						continue // left for the final drain
					}
					mu.Lock()
					received[string(m.Body)] = true
					mu.Unlock()
					if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil {
						t.Error(err)
					}
				}
			}(fmt.Sprintf("hot/q%d", q))
		}
		wg.Wait()
	}
	now := policyNow
	tick := func() FleetDecision {
		t.Helper()
		d, err := a.Tick(now)
		if err != nil {
			t.Fatalf("tick at %v: %v", now, err)
		}
		if got := len(r.Shards()); got != shards {
			t.Fatalf("fleet = %d shards after %q, want %d", got, d.Reason, shards)
		}
		now = now.Add(time.Second)
		return d
	}

	if d := tick(); len(d.Splits)+len(d.Merges)+len(d.Weights) != 0 {
		t.Fatalf("first tick acted before a baseline existed: %+v", d)
	}
	for n := 0; n < 8 && r.Splits()["hot"] < 4; n++ {
		round(n)
		tick()
	}
	if k := r.Splits()["hot"]; k < 4 {
		t.Fatalf("hot group split to %d sub-arcs under load, want at least 4 (splits %v)", k, r.Splits())
	}

	for i := 0; i < 4 && len(r.Splits()) > 0; i++ {
		tick()
	}
	if len(r.Splits()) != 0 {
		t.Fatalf("idle ticks left splits %v, want the group merged back", r.Splits())
	}

	for q := 0; q < queues; q++ {
		qn := fmt.Sprintf("hot/q%d", q)
		for {
			m, ok, err := r.ReceiveMessage(qn, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			received[string(m.Body)] = true
		}
	}
	for body := range sent {
		if !received[body] {
			t.Errorf("message %q was sent and never received", body)
		}
	}
	if len(received) != len(sent) {
		t.Errorf("received %d distinct bodies, sent %d", len(received), len(sent))
	}
}
