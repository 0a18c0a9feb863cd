package perfmodel

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cloud"
)

// staticPlan is Plan on the uncalibrated model, as the broker plans a
// job at admission.
func staticPlan(t *testing.T, app AppModel, nFiles int, target time.Duration,
	catalog []cloud.InstanceType, maxInstances int) Selection {
	t.Helper()
	sel, ok := Calibrate(app, 1, nil, catalog).Plan(nFiles, target, catalog, maxInstances)
	if !ok {
		t.Fatal("no priced instance type in the catalog")
	}
	return sel
}

func TestPlanMeetsTarget(t *testing.T) {
	app := Cap3Model(458)
	sel := staticPlan(t, app, 128, time.Hour, cloud.EC2Catalog(), 16)
	if !sel.MeetsTarget {
		t.Fatalf("no EC2 config meets 1h for 128 files (fastest %v)", sel.Outcome.Makespan)
	}
	if sel.Outcome.Makespan > time.Hour {
		t.Errorf("makespan %v exceeds target", sel.Outcome.Makespan)
	}
	if sel.Instances() < 1 || sel.Instances() > 16 {
		t.Errorf("instances = %d out of range", sel.Instances())
	}
}

func TestPlanIsMinimal(t *testing.T) {
	app := Cap3Model(458)
	const nFiles, maxN = 96, 8
	target := time.Hour
	sel := staticPlan(t, app, nFiles, target, cloud.EC2Catalog(), maxN)
	if !sel.MeetsTarget {
		t.Fatal("expected a qualifying selection")
	}
	for _, it := range cloud.EC2Catalog() {
		for n := 1; n <= maxN; n++ {
			out := Simulate(RunSpec{App: app, Framework: ClassicEC2, Instance: it, Instances: n, NFiles: nFiles})
			if out.Makespan <= target && out.Bill.ComputeCost < sel.Outcome.Bill.ComputeCost {
				t.Errorf("%s ×%d: $%.2f beats selected $%.2f",
					it.Name, n, out.Bill.ComputeCost, sel.Outcome.Bill.ComputeCost)
			}
		}
	}
}

func TestPlanImpossibleTargetFallsBackToFastest(t *testing.T) {
	app := Cap3Model(458)
	sel := staticPlan(t, app, 64, time.Nanosecond, cloud.EC2Catalog(), 4)
	if sel.MeetsTarget {
		t.Error("MeetsTarget for a nanosecond deadline")
	}
	// The fallback must be the fastest scanned configuration.
	for _, it := range cloud.EC2Catalog() {
		for n := 1; n <= 4; n++ {
			out := Simulate(RunSpec{App: app, Framework: ClassicEC2, Instance: it, Instances: n, NFiles: 64})
			if out.Makespan < sel.Outcome.Makespan {
				t.Errorf("%s ×%d makespan %v beats fallback %v",
					it.Name, n, out.Makespan, sel.Outcome.Makespan)
			}
		}
	}
}

// Regression: the no-qualifier fallback compared makespans with a
// strict "<", so among makespan-tied configurations whichever the
// catalog listed first won — including an identically-specced instance
// type at twice the hourly price. Fails against the unfixed sweep.
func TestPlanFallbackBreaksTiesTowardCheaper(t *testing.T) {
	app := Cap3Model(458)
	cheap := cloud.InstanceType{
		Name: "tie-cheap", Provider: cloud.AWS, MemoryGB: 7.5, Cores: 2,
		CostPerHour: 0.30, SixtyFourBit: true, ClockGHz: 2.0, MemBandwidthGBs: 6.4,
	}
	pricey := cheap
	pricey.Name = "tie-pricey"
	pricey.CostPerHour = 0.60
	// Pricey twin first: an order-dependent fallback picks it.
	sel := staticPlan(t, app, 32, time.Nanosecond,
		[]cloud.InstanceType{pricey, cheap}, 4)
	if sel.MeetsTarget {
		t.Fatal("MeetsTarget for a nanosecond deadline")
	}
	if got := sel.InstanceType().Name; got != cheap.Name {
		t.Errorf("fallback picked %s ($%.2f/h) over the identical %s ($%.2f/h)",
			got, sel.InstanceType().CostPerHour, cheap.Name, cheap.CostPerHour)
	}
}

// The second tie-break: among equally cheap, makespan-tied fallbacks the
// smaller fleet wins (one file cannot use a second instance, so every
// fleet size ties).
func TestPlanFallbackBreaksTiesTowardSmallerFleet(t *testing.T) {
	app := Cap3Model(458)
	sel := staticPlan(t, app, 1, time.Nanosecond, cloud.EC2Catalog(), 8)
	if sel.MeetsTarget {
		t.Fatal("MeetsTarget for a nanosecond deadline")
	}
	if sel.Instances() != 1 {
		t.Errorf("fallback fleet = %d for a single file, want 1", sel.Instances())
	}
}

func TestPlanTinyWorkloadPrefersSmallFleet(t *testing.T) {
	// One file cannot use a second instance: the planner must not pay
	// for one.
	app := Cap3Model(458)
	sel := staticPlan(t, app, 1, time.Hour, cloud.EC2Catalog(), 16)
	if !sel.MeetsTarget {
		t.Fatal("one file should fit in an hour")
	}
	if sel.Instances() != 1 {
		t.Errorf("instances = %d for a single file, want 1", sel.Instances())
	}
}

// TestPlanTable pins the planner's choices on the default catalog (EC2
// Table 1 + Azure Table 2) for the three paper workloads. The rows were
// recorded from the planner that swept EC2 and Azure separately and
// merged the two winners; the one sweep picks the same type, fleet and
// verdict in every case, and in every catalog order.
func TestPlanTable(t *testing.T) {
	models := map[string]AppModel{
		"cap3":  Cap3Model(458),
		"blast": BlastModel(100),
		"gtm":   GTMModel(100000),
	}
	cases := []struct {
		app    string
		files  int
		target time.Duration
		cap    int
		key    string
		fleet  int
		meets  bool
	}{
		{"cap3", 1, time.Millisecond, 4, "aws/High Memory 4XL", 1, false},
		{"cap3", 1, time.Millisecond, 16, "aws/High Memory 4XL", 1, false},
		{"cap3", 1, 30 * time.Minute, 4, "azure/Small", 1, true},
		{"cap3", 1, 30 * time.Minute, 16, "azure/Small", 1, true},
		{"cap3", 1, 2 * time.Hour, 4, "azure/Small", 1, true},
		{"cap3", 1, 2 * time.Hour, 16, "azure/Small", 1, true},
		{"cap3", 64, time.Millisecond, 4, "aws/High Memory 4XL", 4, false},
		{"cap3", 64, time.Millisecond, 16, "aws/High Memory 4XL", 8, false},
		{"cap3", 64, 30 * time.Minute, 4, "azure/Large", 1, true},
		{"cap3", 64, 30 * time.Minute, 16, "azure/Large", 1, true},
		{"cap3", 64, 2 * time.Hour, 4, "azure/Medium", 1, true},
		{"cap3", 64, 2 * time.Hour, 16, "azure/Medium", 1, true},
		{"cap3", 256, time.Millisecond, 4, "aws/High Memory 4XL", 4, false},
		{"cap3", 256, time.Millisecond, 16, "aws/High Memory 4XL", 16, false},
		{"cap3", 256, 30 * time.Minute, 4, "aws/High CPU Extra Large", 2, true},
		{"cap3", 256, 30 * time.Minute, 16, "aws/High CPU Extra Large", 2, true},
		{"cap3", 256, 2 * time.Hour, 4, "aws/High CPU Extra Large", 1, true},
		{"cap3", 256, 2 * time.Hour, 16, "aws/High CPU Extra Large", 1, true},
		{"blast", 1, time.Millisecond, 4, "aws/High Memory 4XL", 1, false},
		{"blast", 1, time.Millisecond, 16, "aws/High Memory 4XL", 1, false},
		{"blast", 1, 30 * time.Minute, 4, "azure/Small", 1, true},
		{"blast", 1, 30 * time.Minute, 16, "azure/Small", 1, true},
		{"blast", 1, 2 * time.Hour, 4, "azure/Small", 1, true},
		{"blast", 1, 2 * time.Hour, 16, "azure/Small", 1, true},
		{"blast", 64, time.Millisecond, 4, "aws/High Memory 4XL", 4, false},
		{"blast", 64, time.Millisecond, 16, "aws/High Memory 4XL", 8, false},
		{"blast", 64, 30 * time.Minute, 4, "aws/High CPU Extra Large", 1, true},
		{"blast", 64, 30 * time.Minute, 16, "aws/High CPU Extra Large", 1, true},
		{"blast", 64, 2 * time.Hour, 4, "aws/High CPU Extra Large", 1, true},
		{"blast", 64, 2 * time.Hour, 16, "aws/High CPU Extra Large", 1, true},
		{"blast", 256, time.Millisecond, 4, "aws/High Memory 4XL", 4, false},
		{"blast", 256, time.Millisecond, 16, "aws/High Memory 4XL", 16, false},
		{"blast", 256, 30 * time.Minute, 4, "aws/High CPU Extra Large", 4, true},
		{"blast", 256, 30 * time.Minute, 16, "aws/High CPU Extra Large", 4, true},
		{"blast", 256, 2 * time.Hour, 4, "aws/High CPU Extra Large", 1, true},
		{"blast", 256, 2 * time.Hour, 16, "aws/High CPU Extra Large", 1, true},
		{"gtm", 1, time.Millisecond, 4, "aws/Large", 1, false},
		{"gtm", 1, time.Millisecond, 16, "aws/Large", 1, false},
		{"gtm", 1, 30 * time.Minute, 4, "azure/Small", 1, true},
		{"gtm", 1, 30 * time.Minute, 16, "azure/Small", 1, true},
		{"gtm", 1, 2 * time.Hour, 4, "azure/Small", 1, true},
		{"gtm", 1, 2 * time.Hour, 16, "azure/Small", 1, true},
		{"gtm", 64, time.Millisecond, 4, "aws/High Memory 4XL", 4, false},
		{"gtm", 64, time.Millisecond, 16, "aws/Extra Large", 16, false},
		{"gtm", 64, 30 * time.Minute, 4, "azure/Small", 1, true},
		{"gtm", 64, 30 * time.Minute, 16, "azure/Small", 1, true},
		{"gtm", 64, 2 * time.Hour, 4, "azure/Small", 1, true},
		{"gtm", 64, 2 * time.Hour, 16, "azure/Small", 1, true},
		{"gtm", 256, time.Millisecond, 4, "aws/High Memory 4XL", 4, false},
		{"gtm", 256, time.Millisecond, 16, "aws/High Memory 4XL", 16, false},
		{"gtm", 256, 30 * time.Minute, 4, "azure/Large", 1, true},
		{"gtm", 256, 30 * time.Minute, 16, "azure/Large", 1, true},
		{"gtm", 256, 2 * time.Hour, 4, "azure/Medium", 1, true},
		{"gtm", 256, 2 * time.Hour, 16, "azure/Medium", 1, true},
	}
	ec2, azure := cloud.EC2Catalog(), cloud.AzureCatalog()
	defaultOrder := append(append([]cloud.InstanceType{}, ec2...), azure...)
	reversed := slices.Clone(defaultOrder)
	slices.Reverse(reversed)
	var interleaved []cloud.InstanceType
	for i := range ec2 {
		interleaved = append(interleaved, ec2[i], azure[i])
	}
	for _, order := range []struct {
		name    string
		catalog []cloud.InstanceType
	}{
		{"default", defaultOrder},
		{"reversed", reversed},
		{"interleaved", interleaved},
	} {
		t.Run(order.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cases {
				sel, ok := Calibrate(models[c.app], 2, nil, order.catalog).Plan(c.files, c.target, order.catalog, c.cap)
				if !ok || sel.InstanceType().Key() != c.key || sel.Instances() != c.fleet || sel.MeetsTarget != c.meets {
					t.Errorf("%s %d files, %v, cap %d: planned %s x%d meets=%v (ok=%v), want %s x%d meets=%v",
						c.app, c.files, c.target, c.cap, sel.InstanceType().Key(), sel.Instances(), sel.MeetsTarget, ok,
						c.key, c.fleet, c.meets)
				}
			}
		})
	}
}

// TestPlanSweepsNoFleetPastOneWorkerPerTask: a client's cap of 2^30
// plans what cap 64 does, and returns at once. Past ⌈files / workers⌉
// a fleet only bills more, so the sweep stops there; TestPlanTable's
// rows, recorded before it did, hold the choices it makes.
func TestPlanSweepsNoFleetPastOneWorkerPerTask(t *testing.T) {
	catalog := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	for _, app := range []AppModel{Cap3Model(458), BlastModel(100), GTMModel(100000)} {
		for _, files := range []int{1, 7, 64} {
			for _, target := range []time.Duration{time.Millisecond, 30 * time.Minute} {
				want := staticPlan(t, app, files, target, catalog, 64)
				if got := staticPlan(t, app, files, target, catalog, 1<<30); got != want {
					t.Errorf("%s, %d files, %v: cap 2^30 planned %s x%d (%v), cap 64 %s x%d (%v)",
						app.Name, files, target, got.InstanceType().Key(), got.Instances(), got.Outcome.Makespan,
						want.InstanceType().Key(), want.Instances(), want.Outcome.Makespan)
				}
			}
		}
	}
}

// BenchmarkPlan is the sweep admission runs before a job's 201: 4 096
// CAP3 files against a 30-minute target, fleets up to 64 of each of
// the 8 priced types of the default catalog (512 simulated fleets).
func BenchmarkPlan(b *testing.B) {
	catalog := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	cal := Calibrate(Cap3Model(458), 1, nil, catalog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cal.Plan(4096, 30*time.Minute, catalog, 64); !ok {
			b.Fatal("no plan")
		}
	}
}
