package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/queue"
	"repro/internal/telemetry"
)

// This file closes the loop the broker already closes for worker
// fleets, on the queue tier itself: a router-side AutoscalePolicy that
// watches observed load (P95 over a sliding window of per-tick request
// rates, plus live backlog) and acts on the three levers the ring now
// has — splitting hot groups across sub-arcs, weighting arcs so
// Rebalance equalizes load instead of key space, and growing/shrinking
// the shard fleet from a registry of local-spawn or pre-provisioned
// backends. Decisions are scored (utilization gain vs migration cost
// vs fragmentation) rather than instantaneous-threshold triggers, and
// both cooldowns and hysteresis keep the topology from thrashing. What
// a deployment sizes is a field of AutoscalePolicy; the shape of the
// response is the constants below, the same for every fleet.

// Fleet sizing is considered above scaleUpAt and below scaleDownAt
// utilization, and even then only when the scored trade wins. With a
// fleet of N shards at utilization u:
//
//	grow when    (u − 0.8)·1 > 0.5/(N+1)   gain in headroom vs moving ~1/(N+1) of the key space
//	shrink when  (0.3 − u)·1 > 0.5/N       idle capacity recovered vs moving the retiring shard's whole arc
//
// so two shards grow at u > 0.97 and seven at u > 0.86, while four
// shards shrink only below u = 0.175: a small overshoot does not
// justify migrating a large backlog.
const (
	scaleUpAt           = 0.8
	scaleDownAt         = 0.3
	utilizationWeight   = 1.0 // per unit of utilization above scaleUpAt
	migrationWeight     = 0.5 // per unit of key space moved
	fragmentationWeight = 1.0 // per unit of utilization below scaleDownAt
)

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

// autoscaleInterval is the time between ticks of a started Autoscaler.
const autoscaleInterval = 2 * time.Second

// upCooldown / downCooldown suppress repeat fleet changes. Down is
// stickier: shrink mistakes cost a migration to undo, and a recent
// scale-up also resets the down cooldown.
const (
	upCooldown   = 10 * time.Second
	downCooldown = 30 * time.Second
)

// ShardFactory creates a backend for a shard the autoscaler decided to
// add — typically an in-process *queue.Service in tests and benches,
// or a client dialing a freshly provisioned remote node in production.
type ShardFactory func(id string) (queue.API, error)

// ReserveShard is a pre-provisioned backend the autoscaler may bring
// onto the ring before it asks the factory for a new one — the "warm
// pool" pattern: capacity that is already paid for is used first.
type ReserveShard struct {
	ID      string
	Backend queue.API
}

// AutoscalePolicy tunes the shard fleet's load response. It is
// symmetric to the broker's worker-fleet AutoscalePolicy: a pure
// Decide over one observation, with zero values selecting defaults.
type AutoscalePolicy struct {
	// MinShards / MaxShards bound the fleet (defaults 1 / 8).
	MinShards int
	MaxShards int
	// TargetRatePerShard is the request rate one shard is provisioned
	// for; fleet utilization is totalRate/(shards·target). Default 1000.
	TargetRatePerShard float64
	// SplitRate is the request rate above which a group is hot
	// (default TargetRatePerShard/2).
	SplitRate float64
	// SplitCooldown suppresses further split/merge actions after one
	// fires (default 10s).
	SplitCooldown time.Duration
	// Window is how many per-tick rate samples the P95 load estimate
	// looks back over (default 10). Used by the Autoscaler runner when
	// building observations; Decide itself sees the finished estimate.
	Window int
}

func (p AutoscalePolicy) withDefaults() AutoscalePolicy {
	if p.MinShards <= 0 {
		p.MinShards = 1
	}
	if p.MaxShards <= 0 {
		p.MaxShards = 8
	}
	if p.MaxShards < p.MinShards {
		p.MaxShards = p.MinShards
	}
	if p.TargetRatePerShard <= 0 {
		p.TargetRatePerShard = 1000
	}
	if p.SplitRate <= 0 {
		p.SplitRate = p.TargetRatePerShard / 2
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
	// shard. MinRate/MaxRate are the window extremes.
	RatePerSec       float64
	MinRate, MaxRate float64
	Backlog          int64
	Queues           int
	// Weight is the shard's current ring-arc weight.
	Weight float64
}

// GroupLoad is one placement group's load estimate in an observation.
type GroupLoad struct {
	Group            string
	RatePerSec       float64
	MinRate, MaxRate float64
	Backlog          int64
	Queues           int
	Subgroups        int
	Pinned           bool
}

// FleetObservation is one autoscaler tick's view of the sharded tier.
type FleetObservation struct {
	Now    time.Time
	Shards []ShardLoad
	Groups []GroupLoad
	// LastScaleUp / LastScaleDown / LastSplit are when the previous
	// actions of each kind fired (zero when none have).
	LastScaleUp, LastScaleDown, LastSplit time.Time
}

// FleetDecision is the policy's output for one tick: group splits and
// merges to apply, a fleet delta, and desired ring-arc weights. Reason
// explains the dominant action for operators and tests.
type FleetDecision struct {
	// Splits maps group → new sub-arc count (always > current).
	Splits map[string]int
	// Merges lists split groups to collapse back onto one arc.
	Merges []string
	// Delta is the fleet change: +1 adds a shard, -1 retires one.
	Delta int
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
				k := sub * 2
				if k > policyMaxSubgroups {
					k = policyMaxSubgroups
				}
				if k > g.Queues {
					k = g.Queues
				}
				if k > sub {
					if d.Splits == nil {
						d.Splits = make(map[string]int)
					}
					d.Splits[g.Group] = k
					d.Reason = fmt.Sprintf("group %s hot (rate %.0f/s, backlog %d): split to %d sub-arcs", g.Group, g.RatePerSec, g.Backlog, k)
				}
			case cool && sub > 1:
				d.Merges = append(d.Merges, g.Group)
				d.Reason = fmt.Sprintf("group %s cooled (rate %.0f/s, backlog %d): merge", g.Group, g.RatePerSec, g.Backlog)
			}
		}
		sort.Strings(d.Merges)
	}

	// Fleet sizing: scored, not threshold-triggered (see scaleUpAt).
	// Either action must win its trade.
	util := totalRate / (float64(fleet) * p.TargetRatePerShard)
	upGain := (util - scaleUpAt) * utilizationWeight
	upCost := migrationWeight / float64(fleet+1)
	downGain := (scaleDownAt - util) * fragmentationWeight
	downCost := migrationWeight / float64(fleet)
	switch {
	case fleet < p.MaxShards && upGain > upCost:
		if !o.LastScaleUp.IsZero() && o.Now.Sub(o.LastScaleUp) < upCooldown {
			break // suppressed by cooldown; splits/merges still apply
		}
		d.Delta = 1
		d.Reason = fmt.Sprintf("utilization %.2f above %.2f (gain %.3f > cost %.3f): add shard", util, scaleUpAt, upGain, upCost)
	case fleet > p.MinShards && downGain > downCost:
		last := o.LastScaleDown
		if o.LastScaleUp.After(last) {
			last = o.LastScaleUp // a fresh shard is not retired next tick
		}
		if !last.IsZero() && o.Now.Sub(last) < downCooldown {
			break
		}
		d.Delta = -1
		d.Reason = fmt.Sprintf("utilization %.2f below %.2f (gain %.3f > cost %.3f): retire shard", util, scaleDownAt, downGain, downCost)
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
			desired := s.Weight * mean / rate
			// Bound the per-tick adjustment to 2x either way.
			if desired > s.Weight*2 {
				desired = s.Weight * 2
			}
			if desired < s.Weight/2 {
				desired = s.Weight / 2
			}
			desired = clampWeight(desired)
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

// AutoscalerConfig wires a policy to a router and a supply of shards.
type AutoscalerConfig struct {
	Policy AutoscalePolicy
	// Reserve backends are brought onto the ring first, in order.
	Reserve []ReserveShard
	// Factory is asked for a fresh backend ("auto-0", "auto-1", …)
	// once the reserve is exhausted. Nil means the reserve is the whole
	// supply.
	Factory ShardFactory
	// Metrics, when set, receives shard_autoscale_decisions{verdict}
	// counters and shard_fleet / shard_groups_split gauges.
	Metrics *telemetry.Registry
}

// AutoscaleStatus is a snapshot of the runner for admin surfaces.
type AutoscaleStatus struct {
	Running      bool
	Fleet        int
	Added        []string
	ReserveLeft  int
	LastTick     time.Time
	LastDecision FleetDecision
	LastError    string
}

// Autoscaler drives an AutoscalePolicy against a live Router: each
// tick takes one Snapshot, differentiates the cumulative billed
// request counts into per-tick rates (the telemetry Rate window is
// wall-clock 10s — too coarse for policy decisions during fast
// benches), keeps a sliding window per shard and group, and applies
// the policy's decision. Tick is exported so tests and paperbench can
// drive it deterministically without the wall-clock loop.
type Autoscaler struct {
	r   *Router
	cfg AutoscalerConfig
	pol AutoscalePolicy

	mu           sync.Mutex
	reserve      []ReserveShard
	spawned      int
	added        []string // shards this autoscaler added; the only ones it may retire (LIFO)
	shardRates   rateWindow
	groupRates   rateWindow
	lastUp       time.Time
	lastDown     time.Time
	lastSplit    time.Time
	lastTick     time.Time
	lastDecision FleetDecision
	lastErr      error
	running      bool

	closing   chan struct{}
	closeOnce sync.Once
	loop      sync.WaitGroup
}

// NewAutoscaler binds a policy to a router. Call Start for the
// background loop, or Tick directly for deterministic control.
func NewAutoscaler(r *Router, cfg AutoscalerConfig) *Autoscaler {
	pol := cfg.Policy.withDefaults()
	return &Autoscaler{
		r:          r,
		cfg:        cfg,
		pol:        pol,
		reserve:    append([]ReserveShard(nil), cfg.Reserve...),
		shardRates: newRateWindow(pol.Window),
		groupRates: newRateWindow(pol.Window),
		closing:    make(chan struct{}),
	}
}

// Start launches the tick loop.
func (a *Autoscaler) Start() {
	a.mu.Lock()
	if a.running {
		a.mu.Unlock()
		return
	}
	a.running = true
	a.mu.Unlock()
	a.loop.Add(1)
	go func() {
		defer a.loop.Done()
		t := time.NewTicker(autoscaleInterval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				a.Tick(now)
			case <-a.closing:
				return
			}
		}
	}()
}

// Close stops the tick loop and waits for it. The fleet is left as-is:
// shards the autoscaler added keep serving.
func (a *Autoscaler) Close() {
	a.closeOnce.Do(func() { close(a.closing) })
	a.loop.Wait()
	a.mu.Lock()
	a.running = false
	a.mu.Unlock()
}

// Tick observes, decides, and applies one policy round. The first tick
// only establishes baselines (rates need two cumulative samples).
func (a *Autoscaler) Tick(now time.Time) FleetDecision {
	snap := a.r.Snapshot()

	a.mu.Lock()
	first := a.lastTick.IsZero()
	dt := now.Sub(a.lastTick).Seconds()
	a.lastTick = now
	obs := FleetObservation{
		Now:           now,
		LastScaleUp:   a.lastUp,
		LastScaleDown: a.lastDown,
		LastSplit:     a.lastSplit,
	}
	for _, s := range snap.Shards {
		rate, lo, hi := a.shardRates.push(s.ID, s.Requests, dt)
		if !s.OnRing {
			continue // retired: reachable for receipts, not a sizing input
		}
		obs.Shards = append(obs.Shards, ShardLoad{
			ID:         s.ID,
			RatePerSec: rate,
			MinRate:    lo,
			MaxRate:    hi,
			Backlog:    s.Backlog,
			Queues:     s.Queues,
			Weight:     s.Weight,
		})
	}
	for _, g := range snap.Groups {
		rate, lo, hi := a.groupRates.push(g.Group, g.Requests, dt)
		obs.Groups = append(obs.Groups, GroupLoad{
			Group:      g.Group,
			RatePerSec: rate,
			MinRate:    lo,
			MaxRate:    hi,
			Backlog:    g.Backlog,
			Queues:     g.Queues,
			Subgroups:  g.Subgroups,
			Pinned:     g.Pinned,
		})
	}
	a.shardRates.forgetUnseen()
	a.groupRates.forgetUnseen()
	a.mu.Unlock()

	if first {
		d := FleetDecision{Reason: "first tick: establishing rate baseline"}
		a.record(d, nil)
		return d
	}
	d := a.pol.Decide(obs)
	err := a.apply(now, d)
	a.record(d, err)
	return d
}

// apply executes a decision against the router: splits and merges
// first (they relieve pressure without new capacity), then the fleet
// delta, then the weight nudges as one topology change.
func (a *Autoscaler) apply(now time.Time, d FleetDecision) error {
	var errs []error
	acted := false
	// act records one applied action: its verdict counter and the
	// cooldown it starts.
	act := func(verdict string, cooldown *time.Time) {
		a.countDecision(verdict)
		acted = true
		a.mu.Lock()
		*cooldown = now
		a.mu.Unlock()
	}
	for _, g := range sortedKeys(d.Splits) {
		if err := a.r.SplitGroup(g, d.Splits[g]); err != nil {
			errs = append(errs, err)
			continue
		}
		act("split", &a.lastSplit)
	}
	for _, g := range d.Merges {
		if err := a.r.MergeGroup(g); err != nil {
			errs = append(errs, err)
			continue
		}
		act("merge", &a.lastSplit)
	}
	switch {
	case d.Delta > 0:
		for i := 0; i < d.Delta; i++ {
			id, b, err := a.nextShard()
			if err != nil {
				errs = append(errs, err)
				break
			}
			if err := a.r.AddShard(id, b); err != nil {
				errs = append(errs, err)
				break
			}
			act("up", &a.lastUp)
			a.mu.Lock()
			a.added = append(a.added, id)
			a.mu.Unlock()
		}
	case d.Delta < 0:
		for i := 0; i < -d.Delta; i++ {
			a.mu.Lock()
			if len(a.added) == 0 {
				a.mu.Unlock()
				// Only shards this autoscaler added are retired: the
				// operator's base fleet is never shrunk from under them.
				break
			}
			id := a.added[len(a.added)-1]
			a.added = a.added[:len(a.added)-1]
			a.mu.Unlock()
			if err := a.r.RemoveShard(id); err != nil {
				errs = append(errs, err)
				a.mu.Lock()
				a.added = append(a.added, id)
				a.mu.Unlock()
				break
			}
			act("down", &a.lastDown)
		}
	}
	if len(d.Weights) > 0 {
		changed, err := a.r.reweigh(d.Weights)
		if err != nil {
			errs = append(errs, err)
		}
		if changed {
			a.countDecision("weight")
			acted = true
		}
	}
	if !acted {
		a.countDecision("hold")
	}
	return errors.Join(errs...)
}

// nextShard supplies a backend for a scale-up: the warm reserve in
// order, then the factory with a monotonic "auto-N" id (shard ids are
// not reusable once retired — the old name may still hold straggler
// leases).
func (a *Autoscaler) nextShard() (string, queue.API, error) {
	a.mu.Lock()
	if len(a.reserve) > 0 {
		rs := a.reserve[0]
		a.reserve = a.reserve[1:]
		a.mu.Unlock()
		return rs.ID, rs.Backend, nil
	}
	n := a.spawned
	a.spawned++
	a.mu.Unlock()
	if a.cfg.Factory == nil {
		return "", nil, errors.New("shard: autoscaler shard supply exhausted (empty reserve, no factory)")
	}
	id := fmt.Sprintf("auto-%d", n)
	b, err := a.cfg.Factory(id)
	if err != nil {
		return "", nil, fmt.Errorf("shard: autoscaler factory for %s: %w", id, err)
	}
	if b == nil {
		return "", nil, fmt.Errorf("shard: autoscaler factory returned nil backend for %s", id)
	}
	return id, b, nil
}

func (a *Autoscaler) record(d FleetDecision, err error) {
	a.mu.Lock()
	a.lastDecision = d
	a.lastErr = err
	a.mu.Unlock()
	if a.cfg.Metrics != nil {
		a.cfg.Metrics.Gauge("shard_fleet").Set(int64(len(a.r.Shards())))
		a.cfg.Metrics.Gauge("shard_groups_split").Set(int64(len(a.r.Splits())))
	}
}

func (a *Autoscaler) countDecision(verdict string) {
	if a.cfg.Metrics != nil {
		a.cfg.Metrics.Counter(telemetry.Label("shard_autoscale_decisions", "verdict", verdict)).Add(1)
	}
}

// Status snapshots the runner for /admin/shards.
func (a *Autoscaler) Status() AutoscaleStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AutoscaleStatus{
		Running:      a.running,
		Added:        append([]string(nil), a.added...),
		ReserveLeft:  len(a.reserve),
		LastTick:     a.lastTick,
		LastDecision: a.lastDecision,
	}
	if a.lastErr != nil {
		st.LastError = a.lastErr.Error()
	}
	st.Fleet = len(a.r.Shards())
	return st
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
// tick hiding a hot key — and extremes.
func (w *rateWindow) push(key string, total int64, dt float64) (rate, lo, hi float64) {
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
	return p95(h), slices.Min(h), slices.Max(h)
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
// the load estimate a capacity decision should key on.
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
