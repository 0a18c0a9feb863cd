package broker

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/journal"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

// inertExec is the executor of the scripted-lifecycle tests: every
// execution fails, so the real workers a job launches never settle
// anything (each task is leased once and stays invisible for the
// hour-long visibility timeout) and every settlement the job sees is one
// the script put on the monitor queue. failPreload makes the next
// instance launch fail.
type inertExec struct{ failPreload *atomic.Bool }

func (inertExec) Name() string { return "inert" }

func (inertExec) Execute(classiccloud.Task, []byte) ([]byte, error) {
	return nil, errors.New("inert executor")
}

func (e inertExec) Preload(classiccloud.Env) error {
	if e.failPreload.Load() {
		return errors.New("preload refused")
	}
	return nil
}

// foldScript drives one job's lifecycle by hand: the control loop's tick
// is an hour and the loop itself is stopped (quiesce), so nothing happens
// unless the script calls it.
type foldScript struct {
	t           *testing.T
	cfg         Config
	failPreload atomic.Bool
	b           *Broker
	j           *Job
}

func newFoldScript(t *testing.T, cfg Config) *foldScript {
	s := &foldScript{t: t}
	if cfg.Env.Blob == nil {
		cfg.Env = testEnv()
	}
	cfg.Registry = map[string]ExecutorFactory{
		"inert": func(map[string][]byte) (classiccloud.Executor, error) {
			return inertExec{failPreload: &s.failPreload}, nil
		},
	}
	cfg.TickInterval = time.Hour
	cfg.VisibilityTimeout = time.Hour
	cfg.JournalSnapshotEvery = 3 // compact early and often
	s.cfg = cfg
	s.b = New(cfg)
	t.Cleanup(func() { s.b.Halt() })
	return s
}

func (s *foldScript) submit(req JobRequest) {
	s.t.Helper()
	req.App = "inert"
	req.Files = make(map[string][]byte)
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		req.Files[id] = []byte(id)
	}
	j, err := s.b.Submit(req)
	if err != nil {
		s.t.Fatal(err)
	}
	s.j = j
	s.quiesce()
	s.check("submit")
}

// quiesce ends the job's own control loop, so that the script is the
// only reader of the monitor queue. A job's loop waits on that queue for
// its first report — here for the whole hour-long tick — and would
// settle the script's reports one send at a time. It is told to stop and
// then woken with a body DrainMonitor deletes without settling anything;
// the drain afterwards removes that body if the loop left before taking
// it.
func (s *foldScript) quiesce() {
	s.t.Helper()
	s.j.mu.Lock()
	s.j.stopLoopLocked()
	s.j.mu.Unlock()
	if _, err := s.cfg.Env.Queue.SendMessage(s.j.ccCfg.MonitorQueue(), []byte("wake")); err != nil {
		s.t.Fatal(err)
	}
	s.b.wg.Wait()
	s.j.drainMonitor(0)
}

// report puts worker reports on the job's monitor queue and drains them.
func (s *foldScript) report(step string, reports ...classiccloud.MonitorReport) {
	s.t.Helper()
	for _, rep := range reports {
		body, err := json.Marshal(rep)
		if err != nil {
			s.t.Fatal(err)
		}
		if _, err := s.cfg.Env.Queue.SendMessage(s.j.ccCfg.MonitorQueue(), body); err != nil {
			s.t.Fatal(err)
		}
	}
	s.j.drainMonitor(0)
	s.check(step)
}

func done(id string) classiccloud.MonitorReport {
	return classiccloud.MonitorReport{TaskID: id, Status: classiccloud.StatusDone}
}

func dead(id string) classiccloud.MonitorReport {
	return classiccloud.MonitorReport{TaskID: id, Status: classiccloud.StatusDead}
}

// check is the invariant: the live record IS the fold of the journal.
func (s *foldScript) check(step string) {
	s.t.Helper()
	s.j.mu.Lock()
	live, err := json.Marshal(&s.j.core)
	s.j.mu.Unlock()
	if err != nil {
		s.t.Fatal(err)
	}
	rec, err := loadJobRecord(s.cfg.Env.Blob, s.b.cfg.JournalBucket, s.j.ID)
	if err != nil {
		s.t.Fatalf("after %s: %v", step, err)
	}
	folded, err := json.Marshal(rec)
	if err != nil {
		s.t.Fatal(err)
	}
	if !bytes.Equal(live, folded) {
		s.t.Fatalf("after %s the live job is not its journal fold:\n live %s\n fold %s", step, live, folded)
	}
}

// durableView is what a job says about its durable facts: the same
// before a crash and after recovery, whatever happened to the fleet.
type durableView struct {
	Policy       AutoscalePolicy
	InstanceType string
	TaskIDs      []string
	Status       Status
	FixedFleet   int
}

func viewOf(j *Job) durableView {
	st, fixed := j.Status(), j.CostReport().FixedFleet
	st.Fleet, st.Adoptions, st.Trace, st.Elapsed = 0, 0, "", ""
	j.mu.Lock()
	defer j.mu.Unlock()
	return durableView{
		Policy:       j.core.policy(),
		InstanceType: j.instanceTypeLocked().Key(),
		TaskIDs:      j.core.TaskIDs,
		Status:       st,
		FixedFleet:   fixed,
	}
}

// crashAndRecover halts the broker the way a crash would and recovers
// the job on a fresh one, which must say the same about it.
func (s *foldScript) crashAndRecover() {
	s.t.Helper()
	before := viewOf(s.j)
	s.b.Halt()
	s.check("halt") // a Halt journals nothing
	s.b = New(s.cfg)
	s.t.Cleanup(s.b.Halt)
	if n, err := s.b.Recover(); err != nil || n != 1 {
		s.t.Fatalf("Recover = %d, %v; want the one running job", n, err)
	}
	j, ok := s.b.Job(s.j.ID)
	if !ok {
		s.t.Fatalf("%s not adopted", s.j.ID)
	}
	s.j = j
	s.quiesce()
	s.check("recover")
	after := viewOf(j)
	if !reflect.DeepEqual(before, after) {
		s.t.Fatalf("the recovered job is not the one that died:\n died      %+v\n recovered %+v", before, after)
	}
	if st := j.Status(); st.Adoptions == 0 || st.Fleet != after.Policy.MinInstances {
		s.t.Fatalf("recovered status = %+v, want an adoption and the floor fleet", st)
	}
}

// TestLiveJobEqualsJournalFold is the control plane's counterpart of the
// queue shard's TestLiveStateEqualsJournalFold: after every step of a
// scripted lifecycle the live jobRecord equals loadJobRecord's fold of
// what is in the blob store (compaction forced every few events), and a
// job recovered from a Halt()ed broker reports the same policy, instance
// type, task set, Status and fixed-fleet baseline as the one that died.
func TestLiveJobEqualsJournalFold(t *testing.T) {
	t.Run("settle scale preempt fail recover complete", func(t *testing.T) {
		s := newFoldScript(t, Config{
			Autoscale: AutoscalePolicy{MinInstances: 1, MaxInstances: 3, BacklogPerInstance: 2, ScaleUpStep: 4},
		})
		s.submit(JobRequest{})
		s.j.autoscaleTick() // backlog 6 at 2 per instance: the fleet goes 1 -> 3
		s.check("scale up")
		if st := s.j.Status(); st.Fleet != 3 {
			t.Fatalf("fleet = %d after scale-up, want 3", st.Fleet)
		}
		s.report("in-batch repeat", done("a"), done("b"), done("b"))
		s.report("cross-batch repeat and a dead letter", done("a"), dead("c"))
		if st := s.j.Status(); st.Done != 2 || st.Dead != 1 || st.Duplicates != 1 {
			t.Fatalf("status = %+v, want done 2 (a, b), dead 1 (c), 1 duplicate (b twice in one batch)", st)
		}
		s.j.mu.Lock()
		s.j.scaleDownToLocked(1, "script")
		s.j.mu.Unlock()
		s.check("scale down")
		if !s.j.Preempt() {
			t.Fatal("nothing to preempt")
		}
		s.check("preempt")
		s.failPreload.Store(true)
		s.j.autoscaleTick()
		s.check("launch failure")
		s.failPreload.Store(false)
		if st, cr := s.j.Status(), s.j.CostReport(); st.Fleet != 0 || cr.Launches != 3 || cr.Preemptions != 1 {
			t.Fatalf("fleet %d, launches %d, preemptions %d; want 0, 3 (the failed launch is not one), 1",
				st.Fleet, cr.Launches, cr.Preemptions)
		}
		s.j.autoscaleTick()
		s.check("scale back up")
		s.crashAndRecover()
		if s.j.maybeComplete() {
			t.Fatal("completed with 3 of 6 tasks settled")
		}
		// Completion wins over c's dead letter.
		s.report("the rest", done("c"), done("d"), done("e"), done("f"))
		if !s.j.maybeComplete() {
			t.Fatal("not complete with every task done")
		}
		s.check("complete")
		if st := s.j.Status(); st.State != StateCompleted || st.Done != 6 || st.Dead != 0 || st.Fleet != 0 {
			t.Fatalf("final status = %+v", st)
		}
	})

	t.Run("abort", func(t *testing.T) {
		s := newFoldScript(t, Config{})
		s.submit(JobRequest{})
		s.report("one settlement", done("a"))
		s.b.Close()
		s.check("close")
		if st := s.j.Status(); st.State != StateAborted || st.Fleet != 0 {
			t.Fatalf("status after Close = %+v", st)
		}
	})

	// A re-plan changes the instance type AND the fleet cap. Both are in
	// the EvReplanned fold, so the job that recovers runs the new type
	// under the new cap — and reports the same fixed-fleet baseline.
	t.Run("plan replan recover", func(t *testing.T) {
		slow := cloud.InstanceType{Name: "slow-cheap", Provider: cloud.AWS, MemoryGB: 4, Cores: 1,
			CostPerHour: 0.10, SixtyFourBit: true, ClockGHz: 1.0, MemBandwidthGBs: 10}
		fast := cloud.InstanceType{Name: "fast-pricey", Provider: cloud.AWS, MemoryGB: 4, Cores: 1,
			CostPerHour: 0.50, SixtyFourBit: true, ClockGHz: 4.0, MemBandwidthGBs: 10}
		// 6 tasks modeled at 1 s each on the slow type: two slow instances
		// meet the 10 s target on paper (9.3 s). Observed at 5 s per task
		// no slow fleet can, and the fast type needs three instances.
		model := perfmodel.AppModel{Name: "inert", WorkGHzSec: 1}
		env := testEnv()
		cal, err := catalog.Open(catalog.Config{Store: env.Blob})
		if err != nil {
			t.Fatal(err)
		}
		s := newFoldScript(t, Config{
			Env:                env,
			Catalog:            []cloud.InstanceType{slow, fast},
			DefaultInstance:    slow,
			WorkersPerInstance: 1,
			PlanningModels:     map[string]perfmodel.AppModel{"inert": model},
			Autoscale:          AutoscalePolicy{MinInstances: 1, MaxInstances: 4},
			Calibration:        cal,
			Replan:             ReplanPolicy{Enabled: true, MinSamples: 2, Cooldown: time.Nanosecond},
		})
		s.submit(JobRequest{TargetMakespan: 10 * time.Second})
		planned := viewOf(s.j)
		if planned.InstanceType != slow.Key() || planned.Status.PlannedInstances == 0 ||
			planned.Policy.MaxInstances != planned.Status.PlannedInstances {
			t.Fatalf("plan = %+v, want slow-cheap with the policy clamped to the planned fleet", planned)
		}
		observed := func(id string) classiccloud.MonitorReport {
			rep := done(id)
			rep.ServiceTime, rep.InstanceType = 5*time.Second, slow.Key()
			return rep
		}
		s.report("slow settlements", observed("a"), observed("b"))
		s.j.replanTick()
		s.check("replan")
		replanned := viewOf(s.j)
		if replanned.InstanceType != fast.Key() || replanned.Status.Replans != 1 {
			t.Fatalf("after the re-plan: %+v, want one switch to fast-pricey", replanned)
		}
		if replanned.Policy.MaxInstances == planned.Policy.MaxInstances {
			t.Fatalf("geometry broken: the re-plan kept the fleet cap at %d, so it cannot drift", planned.Policy.MaxInstances)
		}
		if got := replanned.Policy.MaxInstances; got != replanned.Status.PlannedInstances {
			t.Fatalf("fleet cap %d after a re-plan to %d instances", got, replanned.Status.PlannedInstances)
		}
		s.crashAndRecover()
	})
}

// The JSON of every journal event and of the jobRecord snapshot is a
// stored format. testdata/journal_golden.json holds, recorded at the
// commit before the record began embedding classiccloud.Settlement: a
// SyntheticJournal document, a compacted journal with its snapshot
// object (every event type but replanned, whose fold changed on
// purpose), and what each folded and recovered to there.
func TestJournalGoldensStillRecover(t *testing.T) {
	raw, err := os.ReadFile("testdata/journal_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Objects    map[string][]byte          `json:"objects"`
		Records    map[string]json.RawMessage `json:"records"`
		Status     map[string]Status          `json:"status"`
		FixedFleet map[string]int             `json:"fixed_fleet"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	env := testEnv()
	b := New(Config{Env: env, TickInterval: time.Hour})
	defer b.Close()
	for key, data := range golden.Objects {
		if err := env.Blob.Put(b.cfg.JournalBucket, key, data); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := SyntheticJournal(5, time.Unix(1_700_000_000, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, golden.Objects[journalKey("job-0001")]) {
		t.Error("SyntheticJournal no longer renders the recorded document")
	}
	if n, err := b.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want both terminal jobs registered", n, err)
	}
	for id, want := range golden.Records {
		rec, err := loadJobRecord(env.Blob, b.cfg.JournalBucket, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var recorded bytes.Buffer
		if err := json.Compact(&recorded, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recorded.Bytes()) {
			t.Errorf("%s folds to\n %s\nrecorded\n %s", id, got, recorded.Bytes())
		}
		j, ok := b.Job(id)
		if !ok {
			t.Fatalf("%s not recovered", id)
		}
		st := j.Status()
		st.Trace = ""
		if st != golden.Status[id] {
			t.Errorf("%s status = %+v, recorded %+v", id, st, golden.Status[id])
		}
		if got := j.CostReport().FixedFleet; got != golden.FixedFleet[id] {
			t.Errorf("%s fixed fleet = %d, recorded %d", id, got, golden.FixedFleet[id])
		}
	}
}

// Every error the control plane drops instead of returning is counted in
// broker_errors_total{site}.
func TestSwallowedErrorsAreCounted(t *testing.T) {
	env := testEnv()
	fq := &faultyQueue{API: env.Queue}
	env.Queue = fq
	calStore := blob.NewStore(blob.Config{})
	cal, err := catalog.Open(catalog.Config{Store: calStore})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := newFoldScript(t, Config{Env: env, Metrics: reg, Calibration: cal,
		Autoscale: AutoscalePolicy{MinInstances: 2, MaxInstances: 2}})
	s.submit(JobRequest{})
	// No s.check from here on: the faults break live == fold on purpose.
	expect := func(site string, want int64) {
		t.Helper()
		if got := reg.Counter(errorMetric(site)).Value(); got != want {
			t.Errorf("broker_errors_total{site=%q} = %d, want %d", site, got, want)
		}
	}
	send := func(rep classiccloud.MonitorReport) {
		t.Helper()
		body, _ := json.Marshal(rep)
		if _, err := fq.API.SendMessage(s.j.ccCfg.MonitorQueue(), body); err != nil {
			t.Fatal(err)
		}
	}
	timed := func(id string) classiccloud.MonitorReport {
		rep := done(id)
		rep.ServiceTime, rep.InstanceType = time.Millisecond, "azure/Small"
		return rep
	}

	fq.failMonitorReceive.Store(true)
	s.j.drainMonitor(0)
	fq.failMonitorReceive.Store(false)
	expect("monitor_receive", 1)

	send(done("a"))
	fq.failMonitorDelete.Store(true)
	s.j.drainMonitor(0)
	fq.failMonitorDelete.Store(false)
	expect("monitor_delete", 1)
	if st := s.j.Status(); st.Done != 1 {
		t.Fatalf("done = %d: the batch whose delete failed was settled first", st.Done)
	}

	if err := calStore.DeleteBucket("calibration"); err != nil {
		t.Fatal(err)
	}
	send(timed("b"))
	s.j.drainMonitor(0)
	expect("calibration_record", 1)

	// A record that cannot be marshalled cannot be snapshotted; the event
	// that tripped the compaction is journaled and folded all the same.
	s.j.mu.Lock()
	s.j.jl.snapEvery, s.j.jl.snapBytes = 1, 0
	s.j.core.LastReplan = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	s.j.mu.Unlock()
	send(done("c"))
	s.j.drainMonitor(0)
	expect("compaction", 1)
	s.j.mu.Lock()
	s.j.jl.snapEvery, s.j.core.LastReplan = 0, time.Time{}
	s.j.mu.Unlock()
	if st := s.j.Status(); st.Done != 3 {
		t.Fatalf("done = %d after a failed compaction, want 3", st.Done)
	}

	// With the journal gone a checkpoint does not happen (its reports stay
	// leased, to redeliver) but a scale-down still must.
	if err := env.Blob.DeleteBucket(s.b.cfg.JournalBucket); err != nil {
		t.Fatal(err)
	}
	send(done("d"))
	s.j.drainMonitor(0)
	expect("checkpoint", 1)
	if st := s.j.Status(); st.Done != 3 {
		t.Fatalf("done = %d: an unjournaled checkpoint was folded", st.Done)
	}
	s.j.mu.Lock()
	s.j.scaleDownToLocked(0, "script")
	s.j.mu.Unlock()
	expect("scale_down_journal", 2)
	if st := s.j.Status(); st.Fleet != 0 {
		t.Fatalf("fleet = %d: a scale-down waited for the journal", st.Fleet)
	}
	if s.j.Preempt() {
		t.Error("Preempt succeeded with nothing running")
	}
	if len(errorSites) != 6 {
		t.Errorf("errorSites = %v: a site was added without a case here", errorSites)
	}
}

// Losing the exclusive journal create to another broker's job of the
// same ID must leave that job's journal alone: the loser's cleanup runs
// for every other failure, not for this one.
func TestSubmitLosingTheCreateRaceTouchesNothing(t *testing.T) {
	env := testEnv()
	fq := &faultyQueue{API: env.Queue}
	env.Queue = fq
	b := New(Config{Env: env, TickInterval: time.Hour})
	defer b.Close()
	winner := journal.Log{Store: env.Blob, Bucket: b.cfg.JournalBucket, Key: journalKey("job-0001")}
	// The other broker's submission lands after our pre-check and before
	// our create: CreateQueue is the first thing Submit does in between.
	var once atomic.Bool
	fq.onCreate = func(string) {
		if once.CompareAndSwap(false, true) {
			if err := winner.Create([]byte(`{"type":"submitted"}`)); err != nil {
				t.Error(err)
			}
		}
	}
	_, err := b.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 2)})
	if !errors.Is(err, journal.ErrExists) {
		t.Fatalf("Submit = %v, want journal.ErrExists", err)
	}
	if v, err := winner.Load(); err != nil || len(v.Entries) != 1 {
		t.Fatalf("the winner's journal after the loser's Submit: %v, %v", v, err)
	}
	if qs := env.Queue.ListQueues(); len(qs) == 0 {
		t.Error("the loser deleted the queues the winner's job now owns")
	}
	if n := len(b.Jobs()); n != 0 {
		t.Errorf("%d jobs registered by a refused submission", n)
	}
}
