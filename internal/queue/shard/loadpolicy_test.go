// Unit tests for the load-aware policy. Decide is a pure function of
// one observation, so every branch — split doubling, merge hysteresis,
// scored fleet sizing, cooldowns, weight nudging — is checkable without
// running a fleet; the Autoscaler lifecycle test then drives the real
// runner against a live router with deterministic ticks.
package shard

import (
	"fmt"
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
	p := AutoscalePolicy{TargetRatePerShard: 1000, SplitRate: 100}
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
	p := AutoscalePolicy{TargetRatePerShard: 1000, SplitRate: 100}
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
	p := AutoscalePolicy{TargetRatePerShard: 1000, SplitRate: 100, SplitCooldown: 10 * time.Second}
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

func TestDecideFleetScaling(t *testing.T) {
	p := AutoscalePolicy{MinShards: 1, MaxShards: 4, TargetRatePerShard: 100}

	// Utilization 1.0 on 2 shards: upGain (0.2) beats upCost (0.5/3).
	hot := FleetObservation{Now: policyNow, Shards: loadShards(100, 100)}
	if d := p.Decide(hot); d.Delta != 1 {
		t.Errorf("hot fleet: Delta = %d, want 1 (reason %q)", d.Delta, d.Reason)
	}
	// Up cooldown suppresses.
	hot.LastScaleUp = policyNow.Add(-time.Second)
	if d := p.Decide(hot); d.Delta != 0 {
		t.Errorf("Delta = %d inside up cooldown", d.Delta)
	}
	// At MaxShards nothing grows.
	capped := FleetObservation{Now: policyNow, Shards: loadShards(100, 100, 100, 100)}
	if d := p.Decide(capped); d.Delta != 0 {
		t.Errorf("Delta = %d at MaxShards", d.Delta)
	}

	// Utilization 0.02 on 2 shards: downGain ((0.3-0.02)·1) beats
	// downCost (0.5/2).
	idle := FleetObservation{Now: policyNow, Shards: loadShards(2, 2)}
	if d := p.Decide(idle); d.Delta != -1 {
		t.Errorf("idle fleet: Delta = %d, want -1 (reason %q)", d.Delta, d.Reason)
	}
	// A recent scale-up resets the down cooldown: fresh capacity is not
	// retired the next tick.
	idle.LastScaleUp = policyNow.Add(-time.Second)
	if d := p.Decide(idle); d.Delta != 0 {
		t.Errorf("Delta = %d right after a scale-up", d.Delta)
	}
	// At MinShards nothing shrinks.
	floor := FleetObservation{Now: policyNow, Shards: loadShards(0)}
	if d := p.Decide(floor); d.Delta != 0 {
		t.Errorf("Delta = %d at MinShards", d.Delta)
	}
	// Mid-band utilization holds steady.
	steady := FleetObservation{Now: policyNow, Shards: loadShards(50, 50)}
	if d := p.Decide(steady); d.Delta != 0 {
		t.Errorf("steady fleet: Delta = %d (reason %q)", d.Delta, d.Reason)
	}
}

func TestDecideWeightNudges(t *testing.T) {
	p := AutoscalePolicy{TargetRatePerShard: 1000}

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
// with deterministic ticks, each one cooldown after the last: load grows
// the fleet through the reserve then the factory, idleness shrinks it
// back — retiring only shards the autoscaler itself added, newest first.
func TestAutoscalerLifecycle(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateQueue("lq"); err != nil {
		t.Fatal(err)
	}

	spawned := 0
	a := NewAutoscaler(r, AutoscalerConfig{
		Policy: AutoscalePolicy{
			MinShards:          1,
			MaxShards:          3,
			TargetRatePerShard: 5,
			Window:             1,
		},
		Reserve: []ReserveShard{{ID: "warm-0", Backend: queue.NewService(queue.Config{Seed: 2})}},
		Factory: func(id string) (queue.API, error) {
			spawned++
			return queue.NewService(queue.Config{Seed: 10}), nil
		},
	})

	now := policyNow
	if d := a.Tick(now); d.Delta != 0 {
		t.Fatalf("first tick acted before a baseline existed: %+v", d)
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := r.SendMessage("lq", []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Sustained load: each tick sees ~20 req/s against a 5/s target,
	// growing one shard per tick — warm reserve first, then the factory —
	// until MaxShards.
	fleets := []int{2, 3, 3}
	for i, want := range fleets {
		send(200)
		now = now.Add(upCooldown)
		a.Tick(now)
		if got := len(r.Shards()); got != want {
			t.Fatalf("tick %d: fleet = %d, want %d (decision %q)", i, got, want, a.Status().LastDecision.Reason)
		}
	}
	st := a.Status()
	if st.ReserveLeft != 0 || spawned != 1 {
		t.Fatalf("reserve-first supply violated: reserveLeft=%d spawned=%d", st.ReserveLeft, spawned)
	}
	if len(st.Added) != 2 || st.Added[0] != "warm-0" || st.Added[1] != "auto-0" {
		t.Fatalf("Added = %v, want [warm-0 auto-0]", st.Added)
	}

	// Drain the backlog so idleness is real, then idle ticks shrink the
	// fleet back — newest first, never the operator's s0.
	for {
		m, ok, err := r.ReceiveMessage("lq", time.Minute)
		if err != nil || !ok {
			break
		}
		if err := r.DeleteMessage("lq", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4 && len(r.Shards()) > 1; i++ {
		now = now.Add(downCooldown)
		a.Tick(now)
	}
	if got := r.Shards(); len(got) != 1 || got[0] != "s0" {
		t.Fatalf("fleet after idle ticks = %v, want [s0]", got)
	}
	if st := a.Status(); len(st.Added) != 0 {
		t.Fatalf("Added after full shrink = %v, want empty", st.Added)
	}
	a.Close()
}
