package perfmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/cloud"
)

func TestCalibrateReproducesObservedTaskTime(t *testing.T) {
	app := Cap3Model(458)
	it := cloud.EC2HCXL
	const workers = 2
	observed := secs(2.5 * app.TaskTime(it, workers, 1, false))
	cal := Calibrate(app, workers, map[string]time.Duration{it.Key(): observed},
		cloud.EC2Catalog())
	got := cal.ExpectedTaskTime(it)
	if diff := math.Abs(got.Seconds() - observed.Seconds()); diff > 1e-6 {
		t.Errorf("calibrated task time %v, observed %v (TaskTime must be linear in the scaled demands)", got, observed)
	}
	if r := cal.RatioFor(it); math.Abs(r-2.5) > 1e-9 {
		t.Errorf("ratio = %v, want 2.5", r)
	}
}

func TestCalibrateUnobservedTypesBorrowMeanRatio(t *testing.T) {
	app := Cap3Model(458)
	const workers = 2
	observed := map[string]time.Duration{
		cloud.EC2Large.Key(): secs(2.0 * app.TaskTime(cloud.EC2Large, workers, 1, false)),
		cloud.EC2HCXL.Key():  secs(3.0 * app.TaskTime(cloud.EC2HCXL, workers, 1, false)),
	}
	cal := Calibrate(app, workers, observed, cloud.EC2Catalog())
	if r := cal.RatioFor(cloud.EC2HM4XL); math.Abs(r-2.5) > 1e-9 {
		t.Errorf("borrowed ratio = %v, want the mean 2.5", r)
	}
}

func TestCalibrateEmptyIsIdentity(t *testing.T) {
	app := Cap3Model(458)
	cal := Calibrate(app, 2, nil, cloud.EC2Catalog())
	for _, it := range cloud.EC2Catalog() {
		if r := cal.RatioFor(it); r != 1.0 {
			t.Errorf("%s: ratio = %v without observations, want 1", it.Key(), r)
		}
	}
}

// A type observed 3× slower than modeled must lose a calibrated sweep it
// wins under the static model, when a rival's observations confirm the
// static curve.
func TestPlanCalibratedSwitchesTypes(t *testing.T) {
	app := Cap3Model(458)
	const workers, nFiles, maxN = 2, 64, 8
	catalog := []cloud.InstanceType{cloud.EC2HCXL, cloud.EC2Large}
	static := staticPlan(t, app, nFiles, 2*time.Hour, catalog, maxN)
	if !static.MeetsTarget {
		t.Fatal("static plan misses a 2h target")
	}
	observed := map[string]time.Duration{
		// The statically-chosen type runs 3× slower than modeled; the
		// other exactly as modeled.
		static.InstanceType().Key(): secs(3.0 * app.TaskTime(static.InstanceType(), workers, 1, false)),
	}
	for _, it := range catalog {
		if it.Key() != static.InstanceType().Key() {
			observed[it.Key()] = secs(app.TaskTime(it, workers, 1, false))
		}
	}
	cal := Calibrate(app, workers, observed, catalog)
	re, _ := cal.Plan(nFiles, 2*time.Hour, catalog, maxN)
	if re.InstanceType().Key() == static.InstanceType().Key() && re.Instances() == static.Instances() {
		t.Errorf("calibrated sweep kept %s x%d despite 3x observed slowdown",
			re.InstanceType().Key(), re.Instances())
	}
}
