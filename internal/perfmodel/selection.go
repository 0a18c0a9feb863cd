package perfmodel

import (
	"time"

	"repro/internal/cloud"
)

// Selection is the outcome of a cost-aware instance-sizing decision: the
// cheapest (instance type, fleet size) pair whose simulated makespan
// meets the caller's target. This is the planning step the elastic
// broker runs before launching a fleet — the paper prices every
// instance type for a fixed workload (Figures 3, 7, 12); the broker
// inverts that table to answer "which type, and how many, for this
// deadline at least cost?".
type Selection struct {
	Spec    RunSpec
	Outcome Outcome
	// MeetsTarget reports whether the predicted makespan is within the
	// requested target. When no candidate qualifies the selection falls
	// back to the fastest achievable configuration and MeetsTarget is
	// false.
	MeetsTarget bool
}

// Instances returns the selected fleet size.
func (s Selection) Instances() int { return s.Spec.Instances }

// InstanceType returns the selected instance type.
func (s Selection) InstanceType() cloud.InstanceType { return s.Spec.Instance }

// Plan sweeps catalog × fleet size (1..maxInstances, and no further
// than one worker per task) once, each priced type under its calibrated
// curve and its provider's Classic Cloud framework (Azure's for Azure,
// EC2's otherwise), for the lowest hour-unit cost whose makespan is at
// most target; cheaper breaks ties.
// When nothing qualifies it returns the fastest configuration with
// MeetsTarget=false, makespan ties going to the cheaper, so the result
// never depends on catalog order. ok is false only when no entry has a
// price (bare metal is not purchasable).
func (c CalibratedModel) Plan(nFiles int, target time.Duration,
	catalog []cloud.InstanceType, maxInstances int) (Selection, bool) {
	maxInstances = max(maxInstances, 1)
	var best, fastest Selection
	haveBest, haveFastest := false, false
	for _, it := range catalog {
		if it.CostPerHour <= 0 {
			continue
		}
		f := ClassicEC2
		if it.Provider == cloud.Azure {
			f = ClassicAzure
		}
		spec := RunSpec{App: c.AppFor(it), Framework: f, Instance: it, NFiles: nFiles}
		// From one worker per task on, every task starts at once: the
		// makespan holds while the bill grows, so no larger fleet wins.
		top := min(maxInstances, max(1, (nFiles+spec.workers()-1)/spec.workers()))
		for spec.Instances = 1; spec.Instances <= top; spec.Instances++ {
			out := Simulate(spec)
			cand := Selection{Spec: spec, Outcome: out, MeetsTarget: out.Makespan <= target}
			// Larger fleets are scanned past the first that qualifies:
			// hour-unit billing means a bigger fleet that finishes just
			// under an hour boundary can bill fewer hour units than a
			// smaller, slower one.
			if cand.MeetsTarget && (!haveBest || cheaper(cand, best)) {
				best, haveBest = cand, true
			}
			if !haveFastest || out.Makespan < fastest.Outcome.Makespan ||
				(out.Makespan == fastest.Outcome.Makespan && cheaper(cand, fastest)) {
				fastest, haveFastest = cand, true
			}
		}
	}
	if haveBest {
		return best, true
	}
	return fastest, haveFastest
}

// cheaper orders selections by hour-unit cost, then fleet size, then
// makespan.
func cheaper(a, b Selection) bool {
	ca, cb := a.Outcome.Bill.ComputeCost, b.Outcome.Bill.ComputeCost
	if ca != cb {
		return ca < cb
	}
	if a.Spec.Instances != b.Spec.Instances {
		return a.Spec.Instances < b.Spec.Instances
	}
	return a.Outcome.Makespan < b.Outcome.Makespan
}
