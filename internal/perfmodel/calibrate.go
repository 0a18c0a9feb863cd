package perfmodel

import (
	"time"

	"repro/internal/cloud"
)

// CalibratedModel overlays live observations onto a static AppModel.
// The static curves answer "what should this instance type deliver?";
// the calibration catalog answers "what did it actually deliver?"; the
// overlay reconciles the two so a re-planning broker can re-run the
// same cheapest-configuration sweep against observed throughput.
//
// The overlay is multiplicative: for an instance type with observed
// mean service time o and modeled task time m, every candidate fleet of
// that type is simulated with the base model's compute and memory
// demands scaled by o/m (TaskTime is linear in both, so the calibrated
// task time is exactly o while the framework overheads stay modeled).
// Types with no observations borrow the mean ratio of the observed
// ones — a fleet-wide miscalibration (the app is simply heavier than
// modeled) transfers to types the job never ran on, which is the
// common case mid-job when only the originally-planned type has data.
type CalibratedModel struct {
	Base AppModel
	// Workers is the workers-per-instance context the observations were
	// measured under (the broker's WorkersPerInstance); the modeled
	// baseline must share it or the ratio conflates calibration error
	// with bandwidth contention.
	Workers int
	// ratios maps cloud.InstanceType.Key() to observed/modeled task-time
	// ratios; meanRatio is their average, the fallback for unobserved
	// types (1.0 when nothing is observed).
	ratios    map[string]float64
	meanRatio float64
}

// Calibrate builds the overlay from observed mean service times keyed
// by cloud.InstanceType.Key(). The catalog resolves keys back to
// machine models; observations for types absent from it are ignored.
func Calibrate(base AppModel, workers int, observed map[string]time.Duration,
	catalog []cloud.InstanceType) CalibratedModel {
	if workers <= 0 {
		workers = 1
	}
	c := CalibratedModel{
		Base:      base,
		Workers:   workers,
		ratios:    make(map[string]float64, len(observed)),
		meanRatio: 1.0,
	}
	sum := 0.0
	for _, it := range catalog {
		obs, ok := observed[it.Key()]
		if !ok || obs <= 0 {
			continue
		}
		modeled := base.TaskTime(it, workers, 1, it.Provider == cloud.Azure)
		if modeled <= 0 {
			continue
		}
		r := obs.Seconds() / modeled
		c.ratios[it.Key()] = r
		sum += r
	}
	if len(c.ratios) > 0 {
		c.meanRatio = sum / float64(len(c.ratios))
	}
	return c
}

// RatioFor returns the observed/modeled task-time ratio applied to an
// instance type: its own ratio when the type has observations, the mean
// observed ratio otherwise (1.0 with no observations at all).
func (c CalibratedModel) RatioFor(it cloud.InstanceType) float64 {
	if r, ok := c.ratios[it.Key()]; ok {
		return r
	}
	if c.meanRatio > 0 {
		return c.meanRatio
	}
	return 1.0
}

// AppFor returns the base model scaled so that TaskTime on the given
// instance type reproduces the observed (or borrowed) ratio. TaskTime
// is linear in WorkGHzSec and MemTrafficGB, so scaling both by the
// ratio scales the roofline max by exactly the ratio.
func (c CalibratedModel) AppFor(it cloud.InstanceType) AppModel {
	r := c.RatioFor(it)
	if r == 1.0 {
		return c.Base
	}
	app := c.Base
	app.WorkGHzSec *= r
	app.MemTrafficGB *= r
	return app
}

// ExpectedTaskTime returns the calibrated per-task service time on an
// instance type under the measurement context (Workers concurrent
// workers, one thread, platform by provider).
func (c CalibratedModel) ExpectedTaskTime(it cloud.InstanceType) time.Duration {
	t := c.AppFor(it).TaskTime(it, c.Workers, 1, it.Provider == cloud.Azure)
	return time.Duration(t * float64(time.Second))
}

// PickCheapest runs the cheapest-configuration sweep against the
// calibrated curves: same search as the package-level PickCheapest,
// with each candidate type simulated under its observation-corrected
// model.
func (c CalibratedModel) PickCheapest(f Framework, nFiles int, target time.Duration,
	catalog []cloud.InstanceType, maxInstances int) Selection {
	return pickCheapest(c.AppFor, f, nFiles, target, catalog, maxInstances)
}
