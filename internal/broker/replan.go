package broker

import (
	"fmt"
	"time"
)

// ReplanPolicy tunes mid-job re-planning: the broker compares each
// job's observed per-task service time (from the calibration catalog)
// against the planning model's expectation, and when the model is badly
// wrong re-runs cost-aware selection against the observed curves —
// switching instance type mid-job by launching the winner and
// LIFO-retiring the old fleet. The hysteresis guards (sample floor,
// error floor, cooldown, re-plan cap) keep one noisy batch from
// thrashing the fleet. Zero values select defaults.
type ReplanPolicy struct {
	// Enabled turns re-planning on. It also requires Config.Calibration:
	// without a catalog there are no observations to re-plan from.
	Enabled bool
	// MinSamples is the observation count the job's current type must
	// reach before its observed mean is trusted (default 16).
	MinSamples int
	// MinRelError is the relative error that triggers a re-plan:
	// observed mean ≥ (1 + MinRelError) × planned service time
	// (default 0.5, i.e. observed at least 1.5× the plan).
	MinRelError float64
	// Cooldown spaces re-plan evaluations; it also delays the first one
	// past job start so the catalog can fill (default 2s).
	Cooldown time.Duration
	// MaxReplans caps re-plans per job (default 3).
	MaxReplans int
}

func (p ReplanPolicy) withDefaults() ReplanPolicy {
	if p.MinSamples <= 0 {
		p.MinSamples = 16
	}
	if p.MinRelError <= 0 {
		p.MinRelError = 0.5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * time.Second
	}
	if p.MaxReplans <= 0 {
		p.MaxReplans = 3
	}
	return p
}

// replanTick runs one re-plan evaluation: cheap guard checks under the
// job lock, catalog reads and the calibrated selection sweep outside
// it, then — only when a different type wins at observed speeds — the
// journaled switch. The sweep plans the whole job, every task it was
// submitted with, against its original target — not the tasks still
// open against the time still left — so a re-plan is the admission plan
// run again at observed speeds. Called from the job's control loop each
// tick; on a job that has ended meanwhile the EvReplanned is refused and
// nothing switches.
func (j *Job) replanTick() {
	b := j.broker
	cal := b.cfg.Calibration
	p := b.cfg.Replan
	if cal == nil || !p.Enabled {
		return
	}
	j.mu.Lock()
	ok := j.core.PlanServiceNS > 0 && j.core.TargetNS > 0 &&
		j.core.Replans < p.MaxReplans
	if ok {
		last := j.core.LastReplan
		if last.IsZero() {
			last = j.core.Started
		}
		ok = time.Since(last) >= p.Cooldown
	}
	cur := j.instanceTypeLocked()
	curKey := cur.Key()
	planNS := j.core.PlanServiceNS
	target := time.Duration(j.core.TargetNS)
	planCap := j.core.PlanCap
	if planCap <= 0 {
		planCap = j.core.policy().MaxInstances
	}
	nTasks := len(j.core.TaskIDs)
	j.mu.Unlock()
	if !ok {
		return
	}

	// Hysteresis: enough samples on the current type, and the observed
	// mean far enough above the plan to be a modeling error rather than
	// noise.
	st, found := cal.Stats(j.App, curKey)
	if !found || st.Count < int64(p.MinSamples) || st.MeanNS <= 0 {
		return
	}
	if float64(st.MeanNS) < float64(planNS)*(1+p.MinRelError) {
		return
	}
	// Re-run selection against observed curves, searching the plan's
	// original (pre-clamp) fleet cap: the re-plan may need a bigger
	// fleet of a faster type than the stale plan settled on.
	sel, expected, found := b.plan(j.App, cal.ObservedMeans(j.App, p.MinSamples), nTasks, target, planCap)
	if !found {
		return
	}
	newType := sel.InstanceType()
	if newType.Key() == curKey {
		// The current type still wins at observed speeds; fleet-size
		// pressure is the autoscaler's job. The trigger condition
		// persists, but Cooldown spaces the re-evaluations.
		return
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	// Re-check under the lock: another re-plan may have moved the job
	// while the sweep ran.
	if j.core.Replans >= p.MaxReplans || j.instanceTypeLocked().Key() != curKey {
		return
	}
	n := sel.Instances()
	reason := fmt.Sprintf("observed %s vs planned %s on %s: switch to %s x%d",
		time.Duration(st.MeanNS).Round(time.Millisecond),
		time.Duration(planNS).Round(time.Millisecond),
		curKey, newType.Key(), n)
	// The re-plan is durable before it is acted on: recovery replays the
	// new type, fleet shape and policy clamp from this event, and the
	// live job reads them from the same fold. PlanServiceNS resets to the
	// calibrated expectation on the new type, so the hysteresis only
	// re-triggers if the new type also underperforms its own calibrated
	// curve — the anti-flap.
	if err := j.recordLocked(Event{
		Type: EvReplanned, Time: time.Now(),
		Provider: string(newType.Provider), Instance: newType.Name,
		PlannedInstances: n, PlanMeetsTarget: sel.MeetsTarget,
		PlanServiceNS: int64(expected),
		ObservedNS:    st.MeanNS,
		Reason:        reason,
	}); err != nil {
		return // journal unreachable: the cooldown retries later
	}
	// Launch the winner, then LIFO-retire the losers. Old instances stop
	// gracefully (current tasks finish and ack), so the switch loses no
	// work; if the scheduler grants nothing (budget exhausted) the old
	// fleet stays up and keeps draining — the re-plan only changes what
	// launches next. Ledger entries journaled before launches were
	// type-stamped have an empty Provider and count as the old type.
	before := j.core.fleetSize()
	j.scaleUpLocked(n, "re-plan to "+newType.Key())
	if j.core.fleetSize() > before {
		j.retireNewestLocked("re-plan retire "+curKey, func(le *ledgerEntry) bool {
			return le.Provider == "" || (le.Provider == string(cur.Provider) && le.Instance == cur.Name)
		})
	}
}
