// Mid-job re-planning, end to end: a job planned against a wrong static
// model runs on instances that are really ≥2× slower than modeled, the
// calibration catalog accumulates the worker-measured evidence, and the
// broker — under its hysteresis guards — journals a `replanned` event,
// switches the fleet to the type that is cheapest at OBSERVED speeds,
// and completes with zero task loss and exact hour-unit accounting. A
// fresh broker over the same store then replays the re-plan from the
// journal. Runs in CI's race-detector matrix.
package repro

import (
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/perfmodel"
	"repro/internal/queue"
)

// The synthetic geometry: two single-core AWS types, one cheap and slow,
// one pricey and 4× faster on paper. The executor really takes
// realTaskTime per task regardless of type — 3× the slow type's modeled
// time — so the static planner (which picks the cheap type) is wrong by
// 3× and only the fast type can meet the deadline at observed speeds.
var (
	replanSlowCheap = cloud.InstanceType{
		Name: "slow-cheap", Provider: cloud.AWS, MemoryGB: 4, Cores: 1,
		CostPerHour: 0.10, SixtyFourBit: true, ClockGHz: 1.0, MemBandwidthGBs: 10,
	}
	replanFastPricey = cloud.InstanceType{
		Name: "fast-pricey", Provider: cloud.AWS, MemoryGB: 4, Cores: 1,
		CostPerHour: 0.50, SixtyFourBit: true, ClockGHz: 4.0, MemBandwidthGBs: 10,
	}
	replanCatalog = []cloud.InstanceType{replanSlowCheap, replanFastPricey}
	// 0.1 GHz·s of work: modeled 100ms/task on slow-cheap, 25ms on
	// fast-pricey.
	replanModel = perfmodel.AppModel{Name: "synth", WorkGHzSec: 0.1}
)

const (
	replanNFiles   = 24
	realTaskTime   = 300 * time.Millisecond // 3× slow-cheap's modeled 100ms
	observedRatio  = 3.0
	replanMaxFleet = 3
)

// replanTarget picks a deadline between the two types' best calibrated
// makespans: achievable for fast-pricey at observed speeds, impossible
// for slow-cheap at any fleet size — and verifies the static planner
// still picks slow-cheap (the mistake the re-planner must correct).
func replanTarget(t *testing.T) time.Duration {
	t.Helper()
	calApp := replanModel
	calApp.WorkGHzSec *= observedRatio
	best := func(it cloud.InstanceType) time.Duration {
		var m time.Duration
		for n := 1; n <= replanMaxFleet; n++ {
			out := perfmodel.Simulate(perfmodel.RunSpec{
				App: calApp, Framework: perfmodel.ClassicEC2,
				Instance: it, Instances: n, NFiles: replanNFiles,
			})
			if m == 0 || out.Makespan < m {
				m = out.Makespan
			}
		}
		return m
	}
	slowBest, fastBest := best(replanSlowCheap), best(replanFastPricey)
	if fastBest >= slowBest {
		t.Fatalf("geometry broken: fast calibrated best %v !< slow %v", fastBest, slowBest)
	}
	target := (slowBest + fastBest) / 2
	sel, ok := perfmodel.Calibrate(replanModel, 1, nil, replanCatalog).Plan(replanNFiles, target, replanCatalog, replanMaxFleet)
	if !ok || !sel.MeetsTarget || sel.InstanceType().Name != replanSlowCheap.Name {
		t.Fatalf("geometry broken: static plan = %s meets=%v", sel.InstanceType().Name, sel.MeetsTarget)
	}
	return target
}

func replanBrokerConfig(t *testing.T, env classiccloud.Env, cal *catalog.Service) broker.Config {
	t.Helper()
	return broker.Config{
		Env: env,
		Registry: map[string]broker.ExecutorFactory{
			"synth": func(map[string][]byte) (classiccloud.Executor, error) {
				return classiccloud.FuncExecutor{
					AppName: "synth",
					Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
						time.Sleep(realTaskTime)
						return input, nil
					},
				}, nil
			},
		},
		PlanningModels:     map[string]perfmodel.AppModel{"synth": replanModel},
		Catalog:            replanCatalog,
		DefaultInstance:    replanSlowCheap,
		WorkersPerInstance: 1,
		TickInterval:       5 * time.Millisecond,
		Autoscale: broker.AutoscalePolicy{
			MinInstances: replanMaxFleet, MaxInstances: replanMaxFleet,
		},
		Calibration: cal,
		Replan: broker.ReplanPolicy{
			Enabled:     true,
			MinSamples:  8,
			MinRelError: 0.5,
			Cooldown:    50 * time.Millisecond,
			// The executor is slow on EVERY type, so after the switch the
			// fast type also misses its calibrated expectation; one
			// re-plan is the intended outcome, and the cap is what holds
			// it there.
			MaxReplans: 1,
		},
	}
}

func TestReplanSwitchesFleetMidJob(t *testing.T) {
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 7}),
	}
	cal, err := catalog.Open(catalog.Config{Store: env.Blob, Prices: replanCatalog})
	if err != nil {
		t.Fatal(err)
	}
	target := replanTarget(t)

	bk := broker.New(replanBrokerConfig(t, env, cal))
	defer bk.Close()

	files := make(map[string][]byte, replanNFiles)
	for i := 0; i < replanNFiles; i++ {
		files[string(rune('a'+i))+".txt"] = []byte("x")
	}
	submitted := time.Now()
	j, err := bk.Submit(broker.JobRequest{
		App: "synth", Files: files, TargetMakespan: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.InstanceType != replanSlowCheap.Key() {
		t.Fatalf("static plan launched %s, want %s", st.InstanceType, replanSlowCheap.Key())
	}
	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The switch happened, was journaled, and converged on the type that
	// is cheapest at observed speeds.
	st := j.Status()
	if st.Replans != 1 {
		t.Errorf("Replans = %d, want 1", st.Replans)
	}
	if st.InstanceType != replanFastPricey.Key() {
		t.Errorf("final type = %s, want %s", st.InstanceType, replanFastPricey.Key())
	}
	// At most 24 checkpoints and a handful of fleet events stay under the
	// broker's 64-event compaction, so the journal still holds the event.
	events, err := j.Journal()
	if err != nil {
		t.Fatal(err)
	}
	replans := 0
	var replanAt time.Time
	for _, ev := range events {
		if ev.Type == broker.EvReplanned {
			replans++
			replanAt = ev.Time
			if ev.Instance != replanFastPricey.Name {
				t.Errorf("replanned to %s/%s, want %s", ev.Provider, ev.Instance, replanFastPricey.Key())
			}
			if ev.ObservedNS < int64(realTaskTime) {
				t.Errorf("replanned ObservedNS = %d, below the real task time %d",
					ev.ObservedNS, int64(realTaskTime))
			}
		}
	}
	if replans != 1 {
		t.Fatalf("journal holds %d replanned events, want 1", replans)
	}
	if detect := replanAt.Sub(submitted); detect <= 0 || detect > 30*time.Second {
		t.Errorf("time-to-detect %v out of range", detect)
	}

	// Zero loss, exact hour-unit accounting: every task settled done,
	// and every non-failed launch billed exactly one hour unit.
	if st.Done != replanNFiles || st.Dead != 0 {
		t.Errorf("done=%d dead=%d, want %d/0", st.Done, st.Dead, replanNFiles)
	}
	cost := j.CostReport()
	if cost.HourUnits != float64(cost.Launches) {
		t.Errorf("HourUnits = %v with %d launches; sub-hour instances must bill exactly 1 unit each",
			cost.HourUnits, cost.Launches)
	}
	if cost.Launches <= replanMaxFleet {
		t.Errorf("launches = %d: the re-plan must have launched a second fleet", cost.Launches)
	}

	// The catalog heard the evidence.
	obs, ok := cal.Stats("synth", replanSlowCheap.Key())
	if !ok || obs.Count < 8 {
		t.Errorf("catalog stats for %s: count=%d ok=%v, want ≥8", replanSlowCheap.Key(), obs.Count, ok)
	}

	// Recovery replays the re-plan: a fresh broker over the same store
	// reports the job at the switched type.
	bk.Close()
	bk2 := broker.New(replanBrokerConfig(t, env, cal))
	defer bk2.Close()
	if _, err := bk2.Recover(); err != nil {
		t.Fatal(err)
	}
	j2, ok := bk2.Job(j.ID)
	if !ok {
		t.Fatal("recovered broker lost the job")
	}
	st2 := j2.Status()
	if st2.InstanceType != replanFastPricey.Key() {
		t.Errorf("recovered type = %s, want the replayed %s", st2.InstanceType, replanFastPricey.Key())
	}
	if st2.Replans != 1 {
		t.Errorf("recovered Replans = %d, want 1", st2.Replans)
	}
	if st2.State != broker.StateCompleted {
		t.Errorf("recovered state = %s, want completed", st2.State)
	}
}
