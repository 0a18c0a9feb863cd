package broker

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/fasta"
	"repro/internal/perfmodel"
	"repro/internal/queue"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Autoscaler policy: pure-function decision tests. Times come from a
// queue.FakeClock so cooldown arithmetic is deterministic.
// ---------------------------------------------------------------------------

func testPolicy() AutoscalePolicy {
	return AutoscalePolicy{
		MinInstances:       1,
		MaxInstances:       8,
		BacklogPerInstance: 10,
		ScaleUpStep:        2,
		ScaleUpCooldown:    5 * time.Second,
		ScaleDownCooldown:  30 * time.Second,
	}
}

func TestPolicyScalesUpOnQueueDepth(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	d := testPolicy().Decide(Observation{
		Now: clk.Now(), Visible: 95, InFlight: 5, Fleet: 1,
	})
	// Backlog 100 wants 10 instances, capped at 8; step limits to +2.
	if d.Delta != 2 {
		t.Errorf("Delta = %+d (%s), want +2", d.Delta, d.Reason)
	}
}

func TestPolicyScaleUpRespectsMaxCap(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	p := testPolicy()
	p.ScaleUpStep = 100
	d := p.Decide(Observation{Now: clk.Now(), Visible: 1000, Fleet: 1})
	if got := 1 + d.Delta; got != p.MaxInstances {
		t.Errorf("fleet after decision = %d, want max %d", got, p.MaxInstances)
	}
}

func TestPolicyScalesDownWhenIdle(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	lastUp := clk.Now()
	clk.Advance(time.Minute) // past the down cooldown
	d := testPolicy().Decide(Observation{
		Now: clk.Now(), Visible: 0, InFlight: 0, Fleet: 4, LastScaleUp: lastUp,
	})
	if d.Delta != -1 {
		t.Errorf("Delta = %+d (%s), want -1", d.Delta, d.Reason)
	}
}

func TestPolicyHoldsFloorWhenIdle(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	d := testPolicy().Decide(Observation{Now: clk.Now(), Visible: 0, Fleet: 1})
	if d.Delta != 0 {
		t.Errorf("Delta = %+d (%s), want 0 at the MinInstances floor", d.Delta, d.Reason)
	}
}

func TestPolicyCooldownSuppressesScaleUp(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	lastUp := clk.Now()
	clk.Advance(2 * time.Second) // inside the 5s up cooldown
	d := testPolicy().Decide(Observation{
		Now: clk.Now(), Visible: 100, Fleet: 3, LastScaleUp: lastUp,
	})
	if d.Delta != 0 {
		t.Errorf("Delta = %+d (%s), want 0 during cooldown", d.Delta, d.Reason)
	}
	clk.Advance(4 * time.Second) // past it
	d = testPolicy().Decide(Observation{
		Now: clk.Now(), Visible: 100, Fleet: 3, LastScaleUp: lastUp,
	})
	if d.Delta <= 0 {
		t.Errorf("Delta = %+d (%s), want scale-up after cooldown", d.Delta, d.Reason)
	}
}

func TestPolicyCooldownSuppressesScaleDown(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	lastDown := clk.Now()
	clk.Advance(10 * time.Second) // inside the 30s down cooldown
	d := testPolicy().Decide(Observation{
		Now: clk.Now(), Visible: 0, Fleet: 4, LastScaleDown: lastDown,
	})
	if d.Delta != 0 {
		t.Errorf("Delta = %+d (%s), want 0 during down cooldown", d.Delta, d.Reason)
	}
}

func TestPolicyRecentScaleUpResetsDownCooldown(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	lastDown := clk.Now()
	clk.Advance(40 * time.Second)
	lastUp := clk.Now() // scale-up after the last down
	clk.Advance(10 * time.Second)
	d := testPolicy().Decide(Observation{
		Now: clk.Now(), Visible: 0, Fleet: 4,
		LastScaleUp: lastUp, LastScaleDown: lastDown,
	})
	if d.Delta != 0 {
		t.Errorf("Delta = %+d (%s): fleet retired right after growing", d.Delta, d.Reason)
	}
}

func TestPolicySizesFromObservedThroughput(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	p := testPolicy()
	p.TargetDrain = 10 * time.Second
	p.ScaleUpStep = 100
	// 2 tasks/sec/instance over a 10s drain target → 20 tasks per
	// instance → backlog 100 wants 5 instances.
	d := p.Decide(Observation{
		Now: clk.Now(), Visible: 100, Fleet: 1, ThroughputPerInstance: 2,
	})
	if got := 1 + d.Delta; got != 5 {
		t.Errorf("fleet after decision = %d (%s), want 5", got, d.Reason)
	}
}

// The sizing basis must flip from the backlog heuristic to observed
// throughput as soon as completions are observed — but only when the
// policy has a drain target, which is why brokerd now defaults
// -target-drain on instead of leaving TargetDrain zero (where observed
// throughput was silently ignored forever).
func TestPolicyBasisSwitchesWithObservedThroughput(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	p := testPolicy()
	p.TargetDrain = 10 * time.Second
	cold := p.Decide(Observation{Now: clk.Now(), Visible: 100, Fleet: 1})
	if !strings.HasPrefix(cold.Reason, "backlog") {
		t.Errorf("no throughput yet: basis = %q, want backlog", cold.Reason)
	}
	warm := p.Decide(Observation{
		Now: clk.Now(), Visible: 100, Fleet: 1, ThroughputPerInstance: 2,
	})
	if !strings.HasPrefix(warm.Reason, "throughput") {
		t.Errorf("throughput observed: basis = %q, want throughput", warm.Reason)
	}
	// Without a drain target the throughput signal is ignored — the
	// trap the brokerd default closes.
	p.TargetDrain = 0
	ignored := p.Decide(Observation{
		Now: clk.Now(), Visible: 100, Fleet: 1, ThroughputPerInstance: 2,
	})
	if !strings.HasPrefix(ignored.Reason, "backlog") {
		t.Errorf("TargetDrain=0: basis = %q, want backlog", ignored.Reason)
	}
}

// ---------------------------------------------------------------------------
// Cost-aware planning
// ---------------------------------------------------------------------------

func TestPlanFleetPicksCheapestMeetingTarget(t *testing.T) {
	app := perfmodel.Cap3Model(458)
	catalog := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	sel, ok := PlanFleet(app, 256, time.Hour, catalog, 16)
	if !ok {
		t.Fatal("no selection")
	}
	if !sel.MeetsTarget {
		t.Fatalf("selection misses target: makespan %v", sel.Outcome.Makespan)
	}
	if sel.Outcome.Makespan > time.Hour {
		t.Errorf("makespan %v exceeds target", sel.Outcome.Makespan)
	}
	// Exhaustively verify nothing cheaper meets the target.
	best := sel.Outcome.Bill.ComputeCost
	for _, g := range []struct {
		framework perfmodel.Framework
		types     []cloud.InstanceType
	}{
		{perfmodel.ClassicEC2, cloud.EC2Catalog()},
		{perfmodel.ClassicAzure, cloud.AzureCatalog()},
	} {
		for _, it := range g.types {
			for n := 1; n <= 16; n++ {
				out := perfmodel.Simulate(perfmodel.RunSpec{
					App: app, Framework: g.framework, Instance: it,
					Instances: n, NFiles: 256,
				})
				if out.Makespan <= time.Hour && out.Bill.ComputeCost < best {
					t.Errorf("%s ×%d costs $%.2f < selected $%.2f",
						it.Name, n, out.Bill.ComputeCost, best)
				}
			}
		}
	}
}

func TestPlanFleetFallsBackToFastest(t *testing.T) {
	app := perfmodel.Cap3Model(458)
	// An impossible 1ms target: the planner must still return the
	// fastest achievable configuration, flagged as missing the target.
	sel, ok := PlanFleet(app, 64, time.Millisecond, cloud.EC2Catalog(), 4)
	if !ok {
		t.Fatal("no selection")
	}
	if sel.MeetsTarget {
		t.Error("MeetsTarget = true for an impossible deadline")
	}
	if sel.Outcome.Makespan <= 0 {
		t.Error("fallback has no makespan")
	}
}

func TestPlanFleetCrossProviderFallbackPrefersFaster(t *testing.T) {
	app := perfmodel.Cap3Model(458)
	// Neither provider can meet 1ms; the cross-provider fallback must
	// be the fastest configuration scanned, not the cheapest.
	catalog := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	sel, ok := PlanFleet(app, 64, time.Millisecond, catalog, 4)
	if !ok {
		t.Fatal("no selection")
	}
	if sel.MeetsTarget {
		t.Fatal("MeetsTarget for an impossible deadline")
	}
	for _, g := range []struct {
		framework perfmodel.Framework
		types     []cloud.InstanceType
	}{
		{perfmodel.ClassicEC2, cloud.EC2Catalog()},
		{perfmodel.ClassicAzure, cloud.AzureCatalog()},
	} {
		for _, it := range g.types {
			for n := 1; n <= 4; n++ {
				out := perfmodel.Simulate(perfmodel.RunSpec{
					App: app, Framework: g.framework, Instance: it,
					Instances: n, NFiles: 64,
				})
				if out.Makespan < sel.Outcome.Makespan {
					t.Errorf("%s ×%d makespan %v beats fallback %v",
						it.Name, n, out.Makespan, sel.Outcome.Makespan)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Broker end-to-end (in-process, no HTTP)
// ---------------------------------------------------------------------------

func testEnv() classiccloud.Env {
	return classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 7}),
	}
}

func cap3Files(t *testing.T, n int) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		doc, err := workload.Cap3File(int64(i+1), 25, 900)
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("region%03d.fsa", i)] = doc
	}
	return files
}

func TestBrokerRunsCap3JobToCompletion(t *testing.T) {
	b := New(Config{
		Env:               testEnv(),
		VisibilityTimeout: 200 * time.Millisecond,
		TickInterval:      5 * time.Millisecond,
		Autoscale: AutoscalePolicy{
			MinInstances: 1, MaxInstances: 4, BacklogPerInstance: 6,
			ScaleDownCooldown: 20 * time.Millisecond,
		},
	})
	defer b.Close()
	j, err := b.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 24)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.Done != 24 || st.Dead != 0 {
		t.Fatalf("done=%d dead=%d, want 24/0", st.Done, st.Dead)
	}
	if st.Fleet != 0 {
		t.Errorf("fleet = %d after completion, want 0", st.Fleet)
	}
	outs, err := j.CollectOutputs()
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range outs {
		if _, err := fasta.ParseBytes(out); err != nil {
			t.Errorf("output %s is not FASTA: %v", name, err)
		}
	}
	evs := j.Events()
	if len(evs) == 0 || evs[0].Action != "launch" {
		t.Fatalf("events = %+v, want initial launch", evs)
	}
}

// TestBrokerDeadLettersPoisonTask drives visibility timeouts with a
// FakeClock: the poison file fails every execution, so its message is
// redelivered until the receive cap routes it to the dead-letter
// queue, while the good files complete.
func TestBrokerDeadLettersPoisonTask(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(5000, 0))
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 7, Clock: clk}),
	}
	b := New(Config{
		Env:               env,
		VisibilityTimeout: 10 * time.Second, // fake-clock seconds
		MaxReceives:       2,
		TickInterval:      5 * time.Millisecond,
		Autoscale:         AutoscalePolicy{MinInstances: 1, MaxInstances: 2},
	})
	defer b.Close()
	files := cap3Files(t, 3)
	files["poison.fsa"] = []byte("this is not FASTA\n")
	j, err := b.Submit(JobRequest{App: "cap3", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: the good tasks complete in real time — every message is
	// initially visible, so no clock advance is needed, and none can
	// spuriously expire a good task's lease mid-execution.
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Done < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("good tasks stuck: %+v", j.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Phase 2: only the failed poison message is parked invisible now;
	// each advance re-exposes it for its next delivery attempt until
	// the receive cap routes it to the dead-letter queue.
	for j.Status().State != StateCompleted {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", j.Status())
		}
		clk.Advance(11 * time.Second)
		time.Sleep(10 * time.Millisecond)
	}
	st := j.Status()
	if st.Done != 3 {
		t.Errorf("done = %d, want 3", st.Done)
	}
	if st.Dead != 1 {
		t.Errorf("dead = %d, want 1", st.Dead)
	}
	dl := j.DeadLetters()
	if len(dl) != 1 || dl[0] != "poison.fsa" {
		t.Errorf("DeadLetters = %v, want [poison.fsa]", dl)
	}
	// The poison body is parked on the job's dead-letter queue.
	visible, inflight, err := env.Queue.ApproximateCount(j.ID + "/dead")
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight < 1 {
		t.Error("dead-letter queue is empty")
	}
}

func TestSubmitValidation(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond})
	defer b.Close()
	if _, err := b.Submit(JobRequest{App: "cap3"}); err == nil {
		t.Error("no error for empty file set")
	}
	if _, err := b.Submit(JobRequest{App: "nope", Files: map[string][]byte{"a": nil}}); err == nil {
		t.Error("no error for unknown app")
	}
	if _, err := b.Submit(JobRequest{App: "blast", Files: map[string][]byte{"a": nil}}); err == nil {
		t.Error("no error for blast without a shared database")
	}
}

// faultyQueue is a queue.API double that fails the failSendAt-th send
// (SendMessage or SendMessageBatch, 1-based) and the failCreateAt-th
// CreateQueue (0 never fails), fails every batch receive / batch delete
// on a monitor queue while failMonitorReceive / failMonitorDelete is
// set, and calls onCreate before each CreateQueue. It counts the batch
// receives and batch deletes made on monitor queues, and tells parked
// (when set) of every monitor receive that is willing to wait. Everything
// else reaches the real service.
type faultyQueue struct {
	queue.API
	failSendAt, failCreateAt              int64
	sends, creates                        atomic.Int64
	failMonitorReceive, failMonitorDelete atomic.Bool
	monitorReceives, monitorDeletes       atomic.Int64
	onCreate                              func(q string)
	parked                                chan struct{}
}

var errInjected = errors.New("injected queue fault")

func (f *faultyQueue) SendMessage(q string, body []byte) (string, error) {
	if f.sends.Add(1) == f.failSendAt {
		return "", errInjected
	}
	return f.API.SendMessage(q, body)
}

func (f *faultyQueue) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	if f.sends.Add(1) == f.failSendAt {
		return nil, errInjected
	}
	return f.API.SendMessageBatch(q, bodies)
}

func (f *faultyQueue) CreateQueue(q string) error {
	if f.onCreate != nil {
		f.onCreate(q)
	}
	if f.creates.Add(1) == f.failCreateAt {
		return errInjected
	}
	return f.API.CreateQueue(q)
}

func (f *faultyQueue) ReceiveMessageBatch(q string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if strings.HasSuffix(q, "/monitor") {
		if f.failMonitorReceive.Load() {
			return nil, errInjected
		}
		f.monitorReceives.Add(1)
		if wait > 0 && f.parked != nil {
			select {
			case f.parked <- struct{}{}:
			default:
			}
		}
	}
	return f.API.ReceiveMessageBatch(q, visibility, max, wait)
}

func (f *faultyQueue) DeleteMessageBatch(q string, receipts []string) ([]error, error) {
	if strings.HasSuffix(q, "/monitor") {
		if f.failMonitorDelete.Load() {
			return nil, errInjected
		}
		f.monitorDeletes.Add(1)
	}
	return f.API.DeleteMessageBatch(q, receipts)
}

// A submission that fails in Setup or part-way through SubmitFiles must
// leave nothing behind: no job queues (with their prefix of task
// messages), no buckets (with their staged inputs), no journal — and
// the broker keeps accepting jobs.
func TestFailedSubmissionLeavesNoResources(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		failSendAt, failCreateAt int64
	}{
		// 25 files are three send batches: the first lands, the second fails.
		{name: "second task batch fails", failSendAt: 2},
		{name: "second queue create fails", failCreateAt: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv()
			env.Queue = &faultyQueue{API: env.Queue, failSendAt: tc.failSendAt, failCreateAt: tc.failCreateAt}
			b := New(Config{
				Env:               env,
				VisibilityTimeout: 400 * time.Millisecond,
				TickInterval:      5 * time.Millisecond,
				MaxReceives:       4, // so the job has a dead-letter queue too
				Autoscale:         AutoscalePolicy{MinInstances: 1, MaxInstances: 2},
			})
			defer b.Close()
			if _, err := b.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 25)}); !errors.Is(err, errInjected) {
				t.Fatalf("Submit error = %v, want the injected fault", err)
			}
			failed := b.newJob("job-0001").ccCfg
			if qs := env.Queue.ListQueues(); len(qs) != 0 {
				t.Errorf("queues left behind: %v", qs)
			}
			for _, bucket := range []string{failed.InputBucket(), failed.OutputBucket()} {
				if _, err := env.Blob.List(bucket, ""); !errors.Is(err, blob.ErrNoSuchBucket) {
					t.Errorf("bucket %s left behind (List error %v)", bucket, err)
				}
			}
			if keys, err := env.Blob.List(b.cfg.JournalBucket, ""); err != nil || len(keys) != 0 {
				t.Errorf("journal bucket holds %v (err %v), want nothing", keys, err)
			}
			if n := len(b.Jobs()); n != 0 {
				t.Errorf("%d jobs registered after a failed submission", n)
			}

			j, err := b.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 3)})
			if err != nil {
				t.Fatalf("Submit after a failed submission: %v", err)
			}
			if err := j.Wait(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			if st := j.Status(); st.Done != 3 {
				t.Fatalf("done = %d, want 3", st.Done)
			}
		})
	}
}

func TestCostReportBillsHourUnits(t *testing.T) {
	b := New(Config{
		Env:          testEnv(),
		TickInterval: 5 * time.Millisecond,
		Autoscale:    AutoscalePolicy{MinInstances: 1, MaxInstances: 4},
	})
	defer b.Close()
	j, err := b.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	cr := j.CostReport()
	if cr.Launches < 1 {
		t.Fatalf("Launches = %d", cr.Launches)
	}
	// Sub-second lifetimes still bill whole hour units, the paper's
	// "compute cost in hour units" convention.
	if cr.HourUnits < 1 {
		t.Errorf("HourUnits = %v, want ≥ 1", cr.HourUnits)
	}
	if cr.HourUnits != float64(cr.Launches) {
		t.Errorf("HourUnits = %v, want %d (one unit per short-lived launch)", cr.HourUnits, cr.Launches)
	}
	if cr.FixedHourUnits != 4 {
		t.Errorf("FixedHourUnits = %v, want 4 (max fleet × 1h)", cr.FixedHourUnits)
	}
	if cr.ComputeCost <= 0 || cr.QueueRequests <= 0 {
		t.Errorf("degenerate report: %+v", cr)
	}
	if cr.Utilization < 0 || cr.Utilization > 1 {
		t.Errorf("Utilization = %v out of range", cr.Utilization)
	}
}

func TestCloseAbortsRunningJob(t *testing.T) {
	slow := map[string]ExecutorFactory{
		"slow": func(map[string][]byte) (classiccloud.Executor, error) {
			return classiccloud.FuncExecutor{
				AppName: "slow",
				Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
					time.Sleep(20 * time.Millisecond)
					return input, nil
				},
			}, nil
		},
	}
	b := New(Config{
		Env:          testEnv(),
		Registry:     slow,
		TickInterval: 5 * time.Millisecond,
	})
	files := make(map[string][]byte)
	for i := 0; i < 40; i++ {
		files[fmt.Sprintf("f%02d", i)] = []byte("x")
	}
	j, err := b.Submit(JobRequest{App: "slow", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	b.Close()
	st := j.Status()
	if st.State != StateAborted {
		t.Fatalf("state = %s after Close mid-run, want aborted", st.State)
	}
	if err := j.Wait(time.Second); err == nil {
		t.Error("Wait returned nil for an aborted job")
	}
	if st.Fleet != 0 {
		t.Errorf("fleet = %d after Close, want 0", st.Fleet)
	}
}
