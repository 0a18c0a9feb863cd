package broker

import (
	"fmt"
	"math"
	"time"
)

// AutoscalePolicy governs how a job's worker fleet tracks its queue.
// The inputs are the two signals the paper's architecture makes cheap
// to observe: the scheduling queue's approximate depth and the
// completion rate flowing through the monitoring queue. Zero values
// select defaults.
type AutoscalePolicy struct {
	// MinInstances is the floor while the job is running (default 1).
	MinInstances int
	// MaxInstances caps the fleet (default 8).
	MaxInstances int
	// BacklogPerInstance is the queue depth one instance is expected to
	// absorb; the fleet is sized to backlog/BacklogPerInstance when no
	// throughput estimate exists yet (default 8).
	BacklogPerInstance int
	// TargetDrain sizes the fleet from observed throughput: enough
	// instances to drain the current backlog within this duration
	// (default 0 = rely on BacklogPerInstance alone).
	TargetDrain time.Duration
	// ScaleDownCooldown suppresses further scale-downs after any
	// scaling action (default 1s); hour-unit billing makes churn the
	// most expensive failure mode, so the down path is deliberately
	// stickier than the up path, which has no cooldown.
	ScaleDownCooldown time.Duration
}

// scaleUpStep caps instances launched per decision: growth to a large
// fleet happens over several ticks, which lets fresh observations veto
// over-provisioning.
const scaleUpStep = 2

func (p AutoscalePolicy) withDefaults() AutoscalePolicy {
	if p.MinInstances <= 0 {
		p.MinInstances = 1
	}
	if p.MaxInstances <= 0 {
		p.MaxInstances = 8
	}
	if p.MaxInstances < p.MinInstances {
		p.MaxInstances = p.MinInstances
	}
	if p.BacklogPerInstance <= 0 {
		p.BacklogPerInstance = 8
	}
	if p.ScaleDownCooldown <= 0 {
		p.ScaleDownCooldown = time.Second
	}
	return p
}

// Observation is one autoscaler tick's view of a job.
type Observation struct {
	Now time.Time
	// Visible and InFlight are the task queue's approximate counts.
	Visible, InFlight int
	// Fleet is the number of running instances.
	Fleet int
	// ThroughputPerInstance is the observed completion rate in
	// tasks/sec/instance (0 until the first completions arrive).
	ThroughputPerInstance float64
	// LastScaleUp / LastScaleDown are the times the previous scaling
	// actions fired (zero when none have).
	LastScaleUp, LastScaleDown time.Time
}

// Decision is the policy's output: how many instances to add (positive)
// or retire (negative), and why.
type Decision struct {
	Delta  int
	Reason string
}

// Decide computes the fleet delta for one observation. It is a pure
// function of its inputs so policies are testable without running a
// fleet or a clock.
func (p AutoscalePolicy) Decide(o Observation) Decision {
	p = p.withDefaults()
	backlog := o.Visible + o.InFlight
	perInstance := float64(p.BacklogPerInstance)
	basis := "backlog"
	if p.TargetDrain > 0 && o.ThroughputPerInstance > 0 {
		perInstance = math.Max(1, o.ThroughputPerInstance*p.TargetDrain.Seconds())
		basis = "throughput"
	}
	desired := int(math.Ceil(float64(backlog) / perInstance))
	if desired < p.MinInstances {
		desired = p.MinInstances
	}
	if desired > p.MaxInstances {
		desired = p.MaxInstances
	}
	switch {
	case desired > o.Fleet:
		delta := min(desired-o.Fleet, scaleUpStep)
		return Decision{Delta: delta, Reason: fmt.Sprintf("%s %d wants %d instances", basis, backlog, desired)}
	case desired < o.Fleet:
		last := o.LastScaleDown
		if o.LastScaleUp.After(last) {
			// A recent scale-up also resets the down cooldown so the
			// fleet is not retired the tick after it grew.
			last = o.LastScaleUp
		}
		if !last.IsZero() && o.Now.Sub(last) < p.ScaleDownCooldown {
			return Decision{Reason: "scale-down suppressed by cooldown"}
		}
		// Retire one instance at a time: scale-down mistakes cost a
		// fresh hour unit to undo.
		return Decision{Delta: -1, Reason: fmt.Sprintf("%s %d wants %d instances", basis, backlog, desired)}
	default:
		return Decision{Reason: "steady"}
	}
}

// ScalingEvent records one fleet change for the job's event log.
type ScalingEvent struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"` // "launch", "stop", "preempt", "orphan", "replan"
	Delta  int       `json:"delta"`
	Fleet  int       `json:"fleet"` // fleet size after the action
	Reason string    `json:"reason"`
}
