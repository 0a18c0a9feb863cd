package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// This file is the router's load response on a fixed fleet: an
// AutoscalePolicy watches observed load (P95 over a sliding window of
// per-tick request rates, plus live backlog) and acts on two levers the
// ring has — splitting hot placement groups across sub-arcs, and
// weighting arcs so Rebalance equalizes load instead of key space. A
// cooldown and a hysteresis band keep the topology from thrashing. What
// a deployment tunes is a field of AutoscalePolicy; the shape of the
// response is the constants below.

// A group is hot above AutoscalePolicy.SplitRate or splitBacklog queued
// messages: its sub-arc fan-out doubles, up to policyMaxSubgroups and
// never past its queue count. mergeFraction is the hysteresis band: a
// split group merges back only when BOTH its rate and its backlog fall
// below that fraction of the split thresholds, so a group hovering at
// the threshold does not split/merge every tick.
const (
	splitBacklog       = 4096
	policyMaxSubgroups = 8
	mergeFraction      = 0.25
)

// AutoscalePolicy tunes the router's load response: a pure Decide over
// one observation, with zero values selecting defaults.
type AutoscalePolicy struct {
	// SplitRate is the request rate above which a group is hot
	// (default 500/s).
	SplitRate float64
	// SplitCooldown suppresses further split/merge actions after one
	// fires (default 10s).
	SplitCooldown time.Duration
	// Window is how many per-tick rate samples the P95 load estimate
	// looks back over (default 10). Used by the Autoscaler when building
	// observations; Decide itself sees the finished estimate.
	Window int
}

func (p AutoscalePolicy) withDefaults() AutoscalePolicy {
	if p.SplitRate <= 0 {
		p.SplitRate = 500
	}
	if p.SplitCooldown <= 0 {
		p.SplitCooldown = 10 * time.Second
	}
	if p.Window <= 0 {
		p.Window = 10
	}
	return p
}

// ShardLoad is one on-ring shard's load estimate in an observation.
type ShardLoad struct {
	ID string
	// RatePerSec is the P95 of the shard's per-tick request rates over
	// the policy window — resistant to one quiet tick hiding a hot
	// shard.
	RatePerSec float64
	// Weight is the shard's current ring-arc weight.
	Weight float64
}

// GroupLoad is one placement group's load estimate in an observation.
type GroupLoad struct {
	Group      string
	RatePerSec float64
	Backlog    int64
	Queues     int
	Subgroups  int
	Pinned     bool
}

// FleetObservation is one autoscaler tick's view of the sharded tier.
type FleetObservation struct {
	Now    time.Time
	Shards []ShardLoad
	Groups []GroupLoad
	// LastSplit is when the previous split or merge fired (zero when
	// none has).
	LastSplit time.Time
}

// FleetDecision is the policy's output for one tick: group splits and
// merges to apply, and desired ring-arc weights. Reason explains the
// dominant action for operators and tests.
type FleetDecision struct {
	// Splits maps group → new sub-arc count (always > current).
	Splits map[string]int
	// Merges lists split groups to collapse back onto one arc.
	Merges []string
	// Weights holds desired ring-arc weights that differ meaningfully
	// from the current ones (deadband applied); the runner sets them
	// and triggers one Rebalance.
	Weights map[string]float64
	Reason  string
}

// Decide computes one tick's actions. It is a pure function of its
// inputs — no clock, no router — so policies are testable (and the
// bench reproducible) without running a fleet.
func (p AutoscalePolicy) Decide(o FleetObservation) FleetDecision {
	p = p.withDefaults()
	fleet := len(o.Shards)
	d := FleetDecision{Reason: "steady"}
	if fleet == 0 {
		d.Reason = "no shards on ring"
		return d
	}
	var totalRate float64
	for _, s := range o.Shards {
		totalRate += s.RatePerSec
	}

	// Hot groups split, cool split groups merge — under one shared
	// cooldown so the topology changes at most one split-step per
	// window.
	if o.LastSplit.IsZero() || o.Now.Sub(o.LastSplit) >= p.SplitCooldown {
		for _, g := range o.Groups {
			if g.Pinned {
				continue
			}
			sub := g.Subgroups
			if sub < 1 {
				sub = 1
			}
			hot := g.RatePerSec > p.SplitRate || g.Backlog > splitBacklog
			cool := g.RatePerSec < p.SplitRate*mergeFraction &&
				float64(g.Backlog) < splitBacklog*mergeFraction
			switch {
			case hot && sub < policyMaxSubgroups && g.Queues > sub:
				// Double the fan-out: one decision halves the hot arc's
				// load instead of creeping up one sub-arc per window.
				k := min(sub*2, policyMaxSubgroups, g.Queues)
				if d.Splits == nil {
					d.Splits = make(map[string]int)
				}
				d.Splits[g.Group] = k
				d.Reason = fmt.Sprintf("group %s hot (rate %.0f/s, backlog %d): split to %d sub-arcs", g.Group, g.RatePerSec, g.Backlog, k)
			case cool && sub > 1:
				d.Merges = append(d.Merges, g.Group)
				d.Reason = fmt.Sprintf("group %s cooled (rate %.0f/s, backlog %d): merge", g.Group, g.RatePerSec, g.Backlog)
			}
		}
		sort.Strings(d.Merges)
	}

	// Weights: nudge each shard's arc toward equal LOAD. A shard
	// serving twice the mean rate gets roughly half the arc; the ratio
	// per tick is bounded and deadbanded so estimates converge instead
	// of oscillating.
	if fleet > 1 && totalRate > 0 {
		mean := totalRate / float64(fleet)
		for _, s := range o.Shards {
			rate := s.RatePerSec
			if rate < mean/8 {
				rate = mean / 8 // a silent shard grows its arc boundedly
			}
			// Bound the per-tick adjustment to 2x either way.
			desired := s.Weight * mean / rate
			desired = clampWeight(min(max(desired, s.Weight/2), s.Weight*2))
			// Deadband: within 25% of current is noise, not signal.
			if ratio := desired / s.Weight; ratio > 0.8 && ratio < 1.25 {
				continue
			}
			if d.Weights == nil {
				d.Weights = make(map[string]float64)
			}
			d.Weights[s.ID] = desired
		}
	}
	return d
}

// Autoscaler drives an AutoscalePolicy against a live Router on the
// fleet it has: each tick takes one Snapshot, differentiates the
// cumulative billed request counts into per-tick rates (the telemetry
// Rate window is wall-clock 10s — too coarse for policy decisions during
// fast benches), keeps a sliding window per shard and group, and applies
// the policy's decision. The caller drives Tick, one call at a time, so a
// run is deterministic in its ticks.
type Autoscaler struct {
	r          *Router
	pol        AutoscalePolicy
	shardRates rateWindow
	groupRates rateWindow
	lastSplit  time.Time
	lastTick   time.Time
}

// NewAutoscaler binds a policy to a router.
func NewAutoscaler(r *Router, p AutoscalePolicy) *Autoscaler {
	pol := p.withDefaults()
	return &Autoscaler{
		r:          r,
		pol:        pol,
		shardRates: newRateWindow(pol.Window),
		groupRates: newRateWindow(pol.Window),
	}
}

// Tick observes, decides, and applies one policy round, and returns the
// decision with whatever the router refused of it. The first tick only
// establishes baselines (rates need two cumulative samples).
func (a *Autoscaler) Tick(now time.Time) (FleetDecision, error) {
	snap := a.r.Snapshot()
	first := a.lastTick.IsZero()
	dt := now.Sub(a.lastTick).Seconds()
	a.lastTick = now
	obs := FleetObservation{Now: now, LastSplit: a.lastSplit}
	for _, s := range snap.Shards {
		rate := a.shardRates.push(s.ID, s.Requests, dt)
		if !s.OnRing {
			continue // retired: reachable for receipts, not a load input
		}
		obs.Shards = append(obs.Shards, ShardLoad{ID: s.ID, RatePerSec: rate, Weight: s.Weight})
	}
	for _, g := range snap.Groups {
		obs.Groups = append(obs.Groups, GroupLoad{
			Group:      g.Group,
			RatePerSec: a.groupRates.push(g.Group, g.Requests, dt),
			Backlog:    g.Backlog,
			Queues:     g.Queues,
			Subgroups:  g.Subgroups,
			Pinned:     g.Pinned,
		})
	}
	a.shardRates.forgetUnseen()
	a.groupRates.forgetUnseen()

	if first {
		return FleetDecision{Reason: "first tick: establishing rate baseline"}, nil
	}
	d := a.pol.Decide(obs)
	return d, a.apply(now, d)
}

// apply executes a decision against the router: splits and merges
// first, then the weight nudges as one topology change.
func (a *Autoscaler) apply(now time.Time, d FleetDecision) error {
	var errs []error
	split := func(err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		a.lastSplit = now
	}
	for _, g := range sortedKeys(d.Splits) {
		split(a.r.SplitGroup(g, d.Splits[g]))
	}
	for _, g := range d.Merges {
		split(a.r.MergeGroup(g))
	}
	if len(d.Weights) > 0 {
		if _, err := a.r.reweigh(d.Weights); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// rateWindow turns cumulative request counts, sampled once per tick,
// into a sliding window of per-tick rates per key (a shard id, or a
// placement group).
type rateWindow struct {
	size int
	last map[string]int64     // cumulative count at the previous tick
	hist map[string][]float64 // per-tick rates, oldest first, at most size
	seen map[string]bool      // keys pushed since the last forgetUnseen
}

func newRateWindow(size int) rateWindow {
	return rateWindow{
		size: size,
		last: make(map[string]int64),
		hist: make(map[string][]float64),
		seen: make(map[string]bool),
	}
}

// push differentiates key's cumulative count over the dt seconds since
// the previous tick (a key's first sample reads as rate 0), slides the
// key's window, and returns the window's P95 — resistant to one quiet
// tick hiding a hot key.
func (w *rateWindow) push(key string, total int64, dt float64) float64 {
	var rate float64
	if last, ok := w.last[key]; ok && dt > 0 {
		rate = float64(total-last) / dt
	}
	w.last[key] = total
	w.seen[key] = true
	h := append(w.hist[key], rate)
	if len(h) > w.size {
		h = h[len(h)-w.size:]
	}
	w.hist[key] = h
	return p95(h)
}

// forgetUnseen drops every key not pushed since the last call: a
// retired shard, a group whose last queue was deleted.
func (w *rateWindow) forgetUnseen() {
	for key := range w.last {
		if !w.seen[key] {
			delete(w.last, key)
			delete(w.hist, key)
		}
	}
	clear(w.seen)
}

// p95 is the 95th-percentile sample (0 for an empty window). For the
// short windows the policy uses this lands on the max or second-max —
// the load estimate a split decision should key on.
func p95(hist []float64) float64 {
	if len(hist) == 0 {
		return 0
	}
	s := append([]float64(nil), hist...)
	sort.Float64s(s)
	i := (len(s)*95 + 99) / 100
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
