// Package broker is the elastic job-orchestration layer above the
// Classic Cloud runtime. The seed's model (queue + blob + independent
// workers, Figure 1 of the paper) runs a fixed-size worker pool
// launched once per run; this package supplies the missing half of the
// paper's pitch — cloud *elasticity* with per-hour cost accounting —
// and, following the paper's discipline of keeping all coordination
// state in cloud storage, makes the broker itself crash-replaceable:
//
//   - Jobs (CAP3 / BLAST / GTM executors over file sets) are accepted
//     long-running-service style and fanned into the scheduling queue
//     and blob store via internal/classiccloud.
//   - Every job lifecycle transition (submitted, planned, re-planned,
//     scaled up/down, task-settlement checkpoints, completed, aborted,
//     adopted) is an event appended to a per-job journal in the blob
//     store (journal.go); in-memory job state is a fold over that
//     journal and nothing else (lifecycle.go), and a restarted brokerd
//     replays the journals and re-adopts unfinished work (Recover).
//   - An autoscaler loop grows and shrinks each job's instance fleet
//     from observed queue depth and per-task throughput, with
//     cooldowns and a max-fleet cap (AutoscalePolicy); scale-ups are
//     granted from a broker-wide instance budget by deficit-weighted
//     fair share across tenants (scheduler.go).
//   - Instance selection is cost-aware: the broker consults the
//     internal/cloud price catalog and the calibrated perfmodel to
//     pick the cheapest instance type meeting a target makespan.
//   - Fleet time is billed in per-hour increments exactly as the paper
//     prices its runs, from the journaled ledger, so billing survives
//     broker restarts; every job closes with a cost report comparing
//     the elastic fleet against a fixed max-size fleet.
//   - Poison tasks are retried up to a receive cap and then parked on
//     a per-job dead-letter queue; worker crashes and spot
//     preemptions are recovered through the queue's visibility
//     timeout, the paper's own fault-tolerance mechanism.
package broker

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/journal"
	"repro/internal/perfmodel"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// DisableJournal as Config.JournalBucket turns event journaling off:
// jobs are memory-only and a broker restart loses them (the pre-journal
// behaviour, useful for benchmarking the journal's overhead).
const DisableJournal = "-"

// Config tunes the broker. Zero values select defaults.
type Config struct {
	// Env is the shared cloud infrastructure (blob + queue services).
	Env classiccloud.Env
	// Registry maps app names to executor factories (DefaultRegistry
	// when nil).
	Registry map[string]ExecutorFactory
	// Autoscale is the default policy; jobs may override it.
	Autoscale AutoscalePolicy
	// WorkersPerInstance is the paper's workers-per-instance knob
	// (default 2).
	WorkersPerInstance int
	// VisibilityTimeout is the task lease length (default 1m). It
	// bounds crash-recovery latency: an abandoned task reappears after
	// this long.
	VisibilityTimeout time.Duration
	// MaxReceives is the per-task retry cap before dead-lettering
	// (default 4).
	MaxReceives int
	// TickInterval is the control loop's cadence (default 200ms): once
	// per tick a job drains its monitor queue in bulk, applies one
	// autoscale decision with its fair-share grant, and considers a
	// re-plan. It does not decide when a job is seen complete — the
	// loop drains again at the job's predicted completion and waits on
	// the queue from there (Job.run) — but it does bound how long Close
	// and Halt can wait for a loop parked in that poll.
	TickInterval time.Duration
	// Catalog lists the instance types cost-aware selection may pick
	// from (default: EC2 Table 1 + Azure Table 2).
	Catalog []cloud.InstanceType
	// DefaultInstance is used when a job has no target makespan
	// (default Azure Small, the paper's most economical Cap3 choice).
	DefaultInstance cloud.InstanceType
	// JournalBucket names the blob bucket holding per-job event
	// journals and the shared data staged for recovery (default
	// "broker-journal"; DisableJournal turns journaling off).
	JournalBucket string
	// JournalSnapshotEvery bounds journal replay: after this many
	// journaled events the job's folded state is snapshotted and the
	// journal truncated to it (journal.Log.Snapshot), so a long-running
	// job's journal no longer grows one checkpoint per drained monitor
	// batch forever. Default 64 events; negative disables compaction.
	JournalSnapshotEvery int
	// TenantQuotas caps each tenant's running instances across all its
	// jobs. Tenants absent from the map are uncapped but still compete
	// for FleetBudget with weight 1.
	TenantQuotas map[string]int
	// FleetBudget caps running instances across ALL tenants; scale-ups
	// draw on it by deficit-weighted fair share. 0 selects the sum of
	// TenantQuotas when quotas are configured, else unlimited.
	FleetBudget int
	// Metrics, when set, receives the broker's instruments: the per-task
	// service-time histogram (broker_task_service_ns, worker-measured,
	// plus an instance_type-labeled variant per reporting type), task
	// settlement and scaling counters, autoscale decision counters, and
	// fleet/job gauges. Nil leaves the broker uninstrumented.
	Metrics *telemetry.Registry
	// Calibration, when set, receives every settled task's
	// worker-measured service time from the settlement path, labeled
	// with the reporting instance's type — the live feed behind the
	// calibration catalog — and is the observation source the re-planner
	// (Replan) reads back.
	Calibration *catalog.Service
	// Replan tunes mid-job re-planning against the calibration catalog.
	// Re-planning runs only when both Calibration is set and
	// Replan.Enabled is true.
	Replan ReplanPolicy
	// PlanningModels overrides the built-in per-app planning models
	// (planningModel) for cost-aware selection and re-planning — the
	// hook bench and regression scenarios use to plan synthetic apps.
	PlanningModels map[string]perfmodel.AppModel
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	if c.WorkersPerInstance <= 0 {
		c.WorkersPerInstance = 2
	}
	if c.VisibilityTimeout <= 0 {
		c.VisibilityTimeout = time.Minute
	}
	if c.MaxReceives <= 0 {
		c.MaxReceives = 4
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 200 * time.Millisecond
	}
	if len(c.Catalog) == 0 {
		c.Catalog = append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	}
	if c.DefaultInstance.Name == "" {
		c.DefaultInstance = cloud.AzureSmall
	}
	if c.JournalBucket == "" {
		c.JournalBucket = "broker-journal"
	}
	if c.JournalSnapshotEvery == 0 {
		c.JournalSnapshotEvery = 64
	}
	c.Replan = c.Replan.withDefaults()
	return c
}

// journalEnabled reports whether event journaling is on.
func (c Config) journalEnabled() bool { return c.JournalBucket != DisableJournal }

// Errors returned by the broker.
var (
	ErrUnknownApp = errors.New("broker: unknown app")
	ErrNoSuchJob  = errors.New("broker: no such job")
	ErrClosed     = errors.New("broker: closed")
	ErrNoFiles    = errors.New("broker: job has no input files")
)

// DefaultTenant attributes jobs submitted without a tenant.
const DefaultTenant = "default"

// JobRequest describes one submission.
type JobRequest struct {
	// App names an executor factory in the registry ("cap3", "blast",
	// "gtm").
	App string `json:"app"`
	// Tenant attributes the job for quota and fair-share scheduling
	// (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Files are the input file set, one task per file.
	Files map[string][]byte `json:"files"`
	// Shared is app shared data staged before workers start (BLAST
	// database, GTM model).
	Shared map[string][]byte `json:"shared,omitempty"`
	// TargetMakespan enables cost-aware instance selection: the broker
	// picks the cheapest catalog entry predicted to finish within it.
	// Zero uses the broker's default instance type.
	TargetMakespan time.Duration `json:"target_makespan,omitempty"`
	// Autoscale overrides the broker's default policy when non-nil.
	Autoscale *AutoscalePolicy `json:"autoscale,omitempty"`
	// InjectCrashes makes the first N task executions abandon their
	// work just before acknowledging it (simulated worker crash /
	// spot preemption); the visibility timeout must recover them.
	InjectCrashes int `json:"inject_crashes,omitempty"`
}

// Broker is the long-running elastic job service.
type Broker struct {
	cfg   Config
	sched *scheduler
	met   *brokerMetrics

	// errLogged holds the broker_errors_total sites already logged once
	// (Job.swallowed).
	errLogged sync.Map

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool
	wg     sync.WaitGroup
}

// New creates a broker over the given environment. The journal bucket
// is created (idempotently) up front so submissions and recovery can
// append to it immediately.
func New(cfg Config) *Broker {
	cfg = cfg.withDefaults()
	b := &Broker{
		cfg:   cfg,
		sched: newScheduler(cfg.TenantQuotas, cfg.FleetBudget),
		jobs:  make(map[string]*Job),
	}
	b.met = newBrokerMetrics(b, cfg.Metrics)
	if cfg.journalEnabled() && cfg.Env.Blob != nil {
		// Best-effort: an unusable journal bucket surfaces per-submission,
		// where there is an error path to report it on.
		_ = cfg.Env.Blob.CreateBucket(cfg.JournalBucket)
	}
	return b
}

// newJob builds a job's runtime handles: everything about a job that is
// NOT journaled, and so is made the same way for a submission and for an
// adoption. The Classic Cloud config is a pure function of the job ID and
// broker config, so a recovering broker reattaches to exactly the queues
// the dead one used; all three queue names share the job ID as their
// placement-group prefix, so a sharded queue deployment keeps the whole
// job on one shard.
func (b *Broker) newJob(id string) *Job {
	j := &Job{
		ID:     id,
		trace:  telemetry.NewTraceID(),
		broker: b,
		env:    b.cfg.Env,
		ccCfg: classiccloud.Config{
			JobName:           id,
			VisibilityTimeout: b.cfg.VisibilityTimeout,
			MaxReceives:       b.cfg.MaxReceives,
			DeadLetterQueue:   id + "/dead",
		},
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
		insts:    make(map[int]*classiccloud.Instance),
		core:     jobRecord{ID: id},
	}
	if b.cfg.journalEnabled() {
		j.jl = &jobJournal{
			log:       journal.Log{Store: b.cfg.Env.Blob, Bucket: b.cfg.JournalBucket, Key: journalKey(id)},
			snapEvery: b.cfg.JournalSnapshotEvery,
		}
	}
	// The job's queue client is scoped to its trace ID when the backend
	// supports it (the HTTP client and the shard router both do; others
	// are used unchanged): every queue request the control loop and the
	// worker fleet make then carries X-Trace-Id, so one job's traffic can
	// be followed across the router to the owning shard.
	j.env.Queue = queue.WithTrace(j.env.Queue, j.trace)
	j.cc = classiccloud.NewClient(j.env, j.ccCfg)
	return j
}

// Submit accepts a job: plans the fleet, stages inputs, journals the
// submission, and hands the job to the same start tail an adoption
// ends in.
func (b *Broker) Submit(req JobRequest) (_ *Job, err error) {
	if len(req.Files) == 0 {
		return nil, ErrNoFiles
	}
	factory, ok := b.cfg.Registry[req.App]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownApp, req.App)
	}
	exec, err := factory(req.Shared)
	if err != nil {
		return nil, err
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.nextID++
	j := b.newJob(fmt.Sprintf("job-%04d", b.nextID))
	b.mu.Unlock()
	j.App, j.Tenant, j.exec = req.App, req.Tenant, exec
	if j.Tenant == "" {
		j.Tenant = DefaultTenant
	}
	if req.InjectCrashes > 0 {
		j.crashBudget.Store(int64(req.InjectCrashes))
		j.ccCfg.CrashBeforeDelete = func(int, classiccloud.Task) bool {
			return j.crashBudget.Add(-1) >= 0
		}
	}

	// The opening events. Cost-aware instance selection against the
	// calibrated model rides on EvPlanned, whose fold also clamps the
	// policy to the planned fleet; PlanCap keeps the pre-clamp cap (the
	// re-planner's search space) and PlanServiceNS the modeled per-task
	// service time on the chosen type (its hysteresis baseline).
	policy := b.cfg.Autoscale
	if req.Autoscale != nil {
		policy = *req.Autoscale
	}
	policy = policy.withDefaults()
	itype := b.cfg.DefaultInstance
	var planned *Event
	if model, ok := b.planningModelFor(req.App); ok && req.TargetMakespan > 0 {
		if sel, ok := PlanFleet(model, len(req.Files), req.TargetMakespan, b.cfg.Catalog, policy.MaxInstances); ok {
			itype = sel.InstanceType()
			planned = &Event{
				Type: EvPlanned, PlannedInstances: sel.Instances(), PlanMeetsTarget: sel.MeetsTarget,
				Provider: string(itype.Provider), Instance: itype.Name,
				PlanServiceNS: modeledServiceNS(model, itype, b.cfg.WorkersPerInstance),
				PlanCap:       policy.MaxInstances,
			}
		}
	}
	submitted := Event{
		Type: EvSubmitted, App: j.App, Tenant: j.Tenant,
		Provider: string(itype.Provider), Instance: itype.Name,
		Policy: &policy, TargetNS: int64(req.TargetMakespan),
	}

	// Refuse the ID before touching any queue if another broker's
	// journal already owns it (a restart that skipped Recover): staging
	// into the dead job's queues would corrupt recoverable state. The
	// exclusive journal create below closes the remaining race window.
	if j.jl != nil {
		if _, _, err := b.cfg.Env.Blob.Stat(b.cfg.JournalBucket, journalKey(j.ID)); err == nil {
			return nil, fmt.Errorf("broker: journal for %s already exists (restarted without Recover?)", j.ID)
		}
	}
	// From here on a failure leaves some of the job's queues and buckets,
	// staged inputs, a prefix of its task messages, perhaps a half-open
	// journal (EvSubmitted landed, EvPlanned failed) that no job will
	// ever own and a later Recover would adopt as a zombie: tear all of it
	// down. The one exception is losing the journal create race — the
	// queues and journal belong to the winner's job, so touch nothing.
	defer func() {
		if err != nil && !errors.Is(err, journal.ErrExists) {
			b.removeJobResources(j)
		}
	}()
	if err := j.cc.Setup(); err != nil {
		return nil, err
	}
	tasks, err := j.cc.SubmitFiles(req.Files)
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		submitted.TaskIDs = append(submitted.TaskIDs, t.ID)
	}
	// Make the job durable: stage shared data for executor rebuild, then
	// open the journal with the submission event. A job only exists once
	// its journal says so.
	if j.jl != nil {
		for name, data := range req.Shared {
			if err := b.cfg.Env.Blob.Put(b.cfg.JournalBucket, sharedKey(j.ID, name), data); err != nil {
				return nil, fmt.Errorf("broker: staging shared data for recovery: %w", err)
			}
		}
	}
	if err := j.open(&submitted, planned); err != nil {
		return nil, err
	}
	// A broker that closed while we were staging must not be left with
	// orphaned task messages no worker will drain — nor a running-state
	// journal no broker owns, which Recover would adopt as a phantom job.
	if !b.start(j, "initial fleet") {
		return nil, ErrClosed
	}
	return j, nil
}

// open journals a job's opening events (either may be nil).
func (j *Job) open(events ...*Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ev := range events {
		if ev != nil {
			ev.Time = time.Now()
			if err := j.recordLocked(*ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// start is the tail every running job goes through, submitted or
// adopted: index it, launch the floor fleet through the fair-share
// scheduler, and start its control loop, which grows the fleet from
// there. It reports false, having done nothing, when the broker has
// closed.
func (b *Broker) start(j *Job, fleetReason string) bool {
	if !b.register(j, true) {
		return false
	}
	b.sched.jobStarted(j.Tenant)
	j.mu.Lock()
	j.lastTick = time.Now()
	j.lastDoneCount = len(j.core.Done)
	j.scaleUpLocked(j.core.policy().MinInstances, fleetReason)
	j.mu.Unlock()
	go func() {
		defer b.wg.Done()
		j.run()
	}()
	return true
}

// register adds a job to the index and keeps nextID ahead of every
// adopted ID so new submissions never collide. For a job about to run,
// registration, the closed re-check, and the WaitGroup reservation are
// one atomic step: a Close that has already passed its jobs snapshot
// (and may be inside wg.Wait) must not gain a job it will never stop.
func (b *Broker) register(j *Job, running bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if running {
		if b.closed {
			return false
		}
		b.wg.Add(1)
	}
	b.jobs[j.ID] = j
	b.order = append(b.order, j.ID)
	var n int
	if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n > b.nextID {
		b.nextID = n
	}
	return true
}

// Recover replays every journal in the journal bucket and re-adopts the
// jobs it finds: terminal jobs are registered read-only (status, cost,
// outputs stay queryable), and running jobs are re-attached to their
// task and monitor queues — without re-submitting any work — their
// autoscaler loops resumed, and their billing continued from the
// journaled ledger. Instances of the dead broker process are orphaned
// at adoption time; in-flight tasks they held reappear via the queue's
// visibility timeout, the paper's own fault-tolerance mechanism. It
// returns the number of running jobs re-adopted.
func (b *Broker) Recover() (int, error) {
	if !b.cfg.journalEnabled() {
		return 0, nil
	}
	ids, err := listJournaledJobs(b.cfg.Env.Blob, b.cfg.JournalBucket)
	if err != nil {
		return 0, fmt.Errorf("broker: listing journals: %w", err)
	}
	adopted := 0
	var firstErr error
	for _, id := range ids {
		b.mu.Lock()
		_, exists := b.jobs[id]
		closed := b.closed
		b.mu.Unlock()
		if exists || closed {
			continue
		}
		live, err := b.adoptJob(id)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("broker: adopting %s: %w", id, err)
		}
		if live {
			adopted++
		}
	}
	return adopted, firstErr
}

// adoptJob rebuilds one job from its journal. It reports whether the
// job resumed running (as opposed to being registered terminal).
func (b *Broker) adoptJob(id string) (bool, error) {
	rec, err := loadJobRecord(b.cfg.Env.Blob, b.cfg.JournalBucket, id)
	if err != nil {
		return false, err
	}
	j := b.newJob(id)
	j.App, j.Tenant, j.core = rec.App, rec.Tenant, *rec
	if rec.State != StateRunning {
		// Terminal: register for queryability; no loops, no fleet.
		close(j.finished)
		b.register(j, false)
		return false, nil
	}

	// Rebuild the executor from the shared data staged at submission.
	factory, ok := b.cfg.Registry[rec.App]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownApp, rec.App)
	}
	shared, err := b.loadShared(id)
	if err != nil {
		return false, err
	}
	if j.exec, err = factory(shared); err != nil {
		return false, err
	}
	// Re-attach to the job's queues (Setup is idempotent): messages keep
	// their receive counts and leases, reports waiting in the monitor
	// queue are preserved, nothing is re-uploaded or re-enqueued.
	if err := j.cc.Setup(); err != nil {
		return false, err
	}
	// The adoption event is the recovery point: it orphans the dead
	// process's instances in the ledger (billing them to now) and resets
	// the cooldown clocks.
	if err := j.open(&Event{Type: EvAdopted}); err != nil {
		return false, err
	}
	// When Close raced the adoption the job stays un-adopted: the next
	// broker recovers it from the journal.
	return b.start(j, "recovery fleet"), nil
}

// loadShared reads back a job's staged shared data.
func (b *Broker) loadShared(jobID string) (map[string][]byte, error) {
	prefix := sharedKey(jobID, "")
	keys, err := b.cfg.Env.Blob.List(b.cfg.JournalBucket, prefix)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, nil
	}
	shared := make(map[string][]byte, len(keys))
	for _, k := range keys {
		data, err := b.cfg.Env.Blob.GetConsistent(b.cfg.JournalBucket, k)
		if err != nil {
			return nil, err
		}
		shared[strings.TrimPrefix(k, prefix)] = data
	}
	return shared, nil
}

// removeJobResources best-effort deletes everything a failed submission
// may have left in the shared environment: the job's queues and buckets,
// and its journal object and staged shared data, so the abandoned
// submission can never be adopted later.
func (b *Broker) removeJobResources(j *Job) {
	q, store := b.cfg.Env.Queue, b.cfg.Env.Blob
	for _, name := range []string{j.ccCfg.TaskQueue(), j.ccCfg.MonitorQueue(), j.ccCfg.DeadLetterQueue} {
		_ = q.DeleteQueue(name)
	}
	_ = store.DeleteBucket(j.ccCfg.InputBucket())
	_ = store.DeleteBucket(j.ccCfg.OutputBucket())
	if j.jl == nil {
		return
	}
	_ = j.jl.log.Delete()
	if keys, err := store.List(b.cfg.JournalBucket, sharedKey(j.ID, "")); err == nil {
		for _, k := range keys {
			_ = store.Delete(b.cfg.JournalBucket, k)
		}
	}
}

// Job looks up a job by id.
func (b *Broker) Job(id string) (*Job, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j, ok := b.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (b *Broker) Jobs() []*Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Job, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.jobs[id])
	}
	return out
}

// FleetSize is the broker-wide count of running instances.
func (b *Broker) FleetSize() int {
	n := 0
	for _, j := range b.Jobs() {
		n += j.fleetSize()
	}
	return n
}

// stopAll marks the broker closed, applies stop to every job, and
// waits for all control loops to exit — the shared teardown of Close
// and Halt.
func (b *Broker) stopAll(stop func(*Job)) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	jobs := make([]*Job, 0, len(b.jobs))
	for _, j := range b.jobs {
		jobs = append(jobs, j)
	}
	b.mu.Unlock()
	for _, j := range jobs {
		stop(j)
	}
	b.wg.Wait()
}

// Close stops every job's autoscaler loop and fleet, and rejects
// further submissions. Unfinished jobs are journaled as aborted.
func (b *Broker) Close() { b.stopAll((*Job).shutdown) }

// Halt hard-stops the broker the way a crash would: control loops stop,
// fleets are killed mid-task (their leases expire via the visibility
// timeout), and — unlike Close — nothing is journaled and no job
// transitions to aborted. A Halt()ed broker's journals are
// indistinguishable from a kill -9's, which is exactly what crash
// recovery tests need. A fresh Broker over the same environment can
// Recover() everything.
func (b *Broker) Halt() { b.stopAll((*Job).halt) }
