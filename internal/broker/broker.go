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
//   - Every job lifecycle transition (submitted, planned, scaled
//     up/down, task-settlement checkpoints, dead-lettered, completed,
//     aborted) is an event appended to a per-job journal in the blob
//     store (journal.go); in-memory job state is a fold over that
//     journal (lifecycle.go), and a restarted brokerd replays the
//     journals and re-adopts unfinished work (Recover).
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

	"repro/internal/blob"
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
	// TickInterval is the autoscaler cadence (default 200ms).
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

// journalFor returns the job's journal handle (nil when disabled).
func (b *Broker) journalFor(jobID string) *jobJournal {
	if !b.cfg.journalEnabled() {
		return nil
	}
	return &jobJournal{
		log:       journal.Log{Store: b.cfg.Env.Blob, Bucket: b.cfg.JournalBucket, Key: journalKey(jobID)},
		snapEvery: b.cfg.JournalSnapshotEvery,
	}
}

// traceEnv returns the broker's environment with the queue client
// scoped to the given trace ID, when the backend supports it (the HTTP
// client and the shard router both do). Every queue request the job's
// control loop and worker fleet make then carries X-Trace-Id, so one
// job's traffic can be followed across the router to the owning shard.
// Backends without trace support are used unchanged.
func (b *Broker) traceEnv(trace string) classiccloud.Env {
	env := b.cfg.Env
	env.Queue = queue.WithTrace(env.Queue, trace)
	return env
}

// ccConfigFor derives a job's Classic Cloud deployment config; it is a
// pure function of the job ID and broker config, so a recovering broker
// reattaches to exactly the queues the dead one used. All three queue
// names share the job ID as their placement-group prefix, so a sharded
// queue deployment keeps the whole job on one shard.
func (b *Broker) ccConfigFor(jobID string) classiccloud.Config {
	return classiccloud.Config{
		JobName:           jobID,
		VisibilityTimeout: b.cfg.VisibilityTimeout,
		MaxReceives:       b.cfg.MaxReceives,
		DeadLetterQueue:   jobID + "/dead",
	}
}

// Submit accepts a job: stages inputs, plans the fleet, journals the
// submission, launches the initial fleet through the fair-share
// scheduler, and starts the job's control loop.
func (b *Broker) Submit(req JobRequest) (*Job, error) {
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
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.nextID++
	id := fmt.Sprintf("job-%04d", b.nextID)
	b.mu.Unlock()

	policy := b.cfg.Autoscale
	if req.Autoscale != nil {
		policy = *req.Autoscale
	}
	policy = policy.withDefaults()

	j := &Job{
		ID:       id,
		App:      req.App,
		Tenant:   tenant,
		trace:    telemetry.NewTraceID(),
		broker:   b,
		exec:     exec,
		policy:   policy,
		itype:    b.cfg.DefaultInstance,
		jl:       b.journalFor(id),
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
		insts:    make(map[int]*classiccloud.Instance),
	}
	j.env = b.traceEnv(j.trace)
	j.crashBudget.Store(int64(req.InjectCrashes))

	// Cost-aware instance selection against the calibrated model.
	var planned *perfSelection
	if req.TargetMakespan > 0 {
		if model, ok := b.planningModelFor(req.App); ok {
			planCap := policy.MaxInstances
			sel, ok := PlanFleet(model, len(req.Files), req.TargetMakespan,
				b.cfg.Catalog, policy.MaxInstances)
			if ok {
				j.plan = &sel
				j.itype = sel.InstanceType()
				planned = &perfSelection{
					instances: sel.Instances(), meets: sel.MeetsTarget,
					cap:       planCap,
					serviceNS: modeledServiceNS(model, j.itype, b.cfg.WorkersPerInstance),
				}
				if n := sel.Instances(); n < j.policy.MaxInstances {
					// The plan already meets the deadline with n
					// instances; cap the fleet there and let observed
					// load fill it.
					j.policy.MaxInstances = n
					if j.policy.MinInstances > n {
						j.policy.MinInstances = n
					}
				}
			}
		}
	}

	j.ccCfg = b.ccConfigFor(id)
	j.ccCfg.InstanceType = j.itype.Key()
	if req.InjectCrashes > 0 {
		j.ccCfg.CrashBeforeDelete = func(int, classiccloud.Task) bool {
			return j.crashBudget.Add(-1) >= 0
		}
	}
	// Refuse the ID before touching any queue if another broker's
	// journal already owns it (a restart that skipped Recover): staging
	// into the dead job's queues would corrupt recoverable state. The
	// exclusive journal create below closes the remaining race window.
	if j.jl != nil {
		if _, _, err := b.cfg.Env.Blob.Stat(b.cfg.JournalBucket, journalKey(id)); err == nil {
			return nil, fmt.Errorf("broker: journal for %s already exists (restarted without Recover?)", id)
		}
	}
	j.cc = classiccloud.NewClient(j.env, j.ccCfg)
	if err = j.cc.Setup(); err == nil {
		j.tasks, err = j.cc.SubmitFiles(req.Files)
	}
	if err != nil {
		// Some of the job's queues and buckets, staged inputs and a
		// prefix of its task messages exist, and no job will ever own
		// them: tear them down (the journal is not open yet).
		b.removeJobResources(j.ccCfg)
		return nil, err
	}
	tasks := j.tasks

	// Make the job durable: stage shared data for executor rebuild, then
	// open the journal with the submission event. A job only exists once
	// its journal says so.
	if j.jl != nil {
		for name, data := range req.Shared {
			if err := b.cfg.Env.Blob.Put(b.cfg.JournalBucket, sharedKey(id, name), data); err != nil {
				b.removeJobResources(j.ccCfg)
				b.removeJobJournal(id)
				return nil, fmt.Errorf("broker: staging shared data for recovery: %w", err)
			}
		}
	}
	taskIDs := make([]string, len(tasks))
	for i, t := range tasks {
		taskIDs[i] = t.ID
	}
	j.mu.Lock()
	err = j.recordLocked(Event{
		Type: EvSubmitted, Time: time.Now(),
		App: req.App, Tenant: tenant, TaskIDs: taskIDs,
		Provider: string(j.itype.Provider), Instance: j.itype.Name,
		Policy:   &j.policy,
		TargetNS: int64(req.TargetMakespan),
	})
	if err == nil && planned != nil {
		err = j.recordLocked(Event{
			Type: EvPlanned, Time: time.Now(),
			PlannedInstances: planned.instances, PlanMeetsTarget: planned.meets,
			Provider: string(j.itype.Provider), Instance: j.itype.Name,
			PlanServiceNS: planned.serviceNS, PlanCap: planned.cap,
		})
	}
	j.mu.Unlock()
	if err != nil {
		if errors.Is(err, blob.ErrPreconditionFailed) {
			// Lost the create race to another broker's journal: the
			// queues and journal belong to that job now — touch nothing.
			return nil, err
		}
		// The journal may hold a half-open submission (EvSubmitted
		// landed, EvPlanned failed): delete it along with the queues so
		// a later Recover does not adopt a zombie job.
		b.removeJobResources(j.ccCfg)
		b.removeJobJournal(id)
		return nil, err
	}
	j.lastTick = time.Now()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		// The broker closed while we were staging: tear the job's
		// queues, buckets, and journal back down so the shared
		// environment is not left with orphaned task messages no worker
		// will drain — nor a running-state journal no broker owns,
		// which Recover would adopt as a phantom job.
		b.removeJobResources(j.ccCfg)
		b.removeJobJournal(id)
		return nil, ErrClosed
	}
	b.jobs[id] = j
	b.order = append(b.order, id)
	b.wg.Add(1)
	b.mu.Unlock()
	b.sched.jobStarted(tenant)

	// Launch the floor fleet immediately; the loop grows it from there.
	j.mu.Lock()
	j.scaleUpLocked(j.policy.MinInstances, "initial fleet")
	j.mu.Unlock()

	go func() {
		defer b.wg.Done()
		j.run()
	}()
	return j, nil
}

// perfSelection carries the planned fleet into the journal: the fleet
// size and target verdict, the pre-clamp instance cap (the re-planner's
// search space), and the modeled per-task service time on the chosen
// type (the re-planner's hysteresis baseline).
type perfSelection struct {
	instances int
	meets     bool
	cap       int
	serviceNS int64
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

	j := &Job{
		ID:       id,
		App:      rec.App,
		Tenant:   rec.Tenant,
		trace:    telemetry.NewTraceID(),
		broker:   b,
		policy:   rec.Policy.withDefaults(),
		itype:    resolveInstanceType(rec.Provider, rec.Instance, b.cfg.Catalog, b.cfg.DefaultInstance),
		jl:       b.journalFor(id),
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
		insts:    make(map[int]*classiccloud.Instance),
		core:     *rec,
	}
	j.env = b.traceEnv(j.trace)
	j.ccCfg = b.ccConfigFor(id)
	j.ccCfg.InstanceType = j.itype.Key()
	j.cc = classiccloud.NewClient(j.env, j.ccCfg)

	if rec.State != StateRunning {
		// Terminal: register for queryability; no loops, no fleet.
		j.tasks = j.ccCfg.TasksFromIDs(rec.TaskIDs)
		close(j.finished)
		b.register(j)
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
	exec, err := factory(shared)
	if err != nil {
		return false, err
	}
	j.exec = exec

	// Re-attach to the job's queues: messages keep their receive counts
	// and leases; nothing is re-uploaded or re-enqueued.
	tasks, err := j.cc.Reattach(rec.TaskIDs)
	if err != nil {
		return false, err
	}
	j.tasks = tasks

	// The adoption event is the recovery point: it orphans the dead
	// process's instances in the ledger (billing them to now) and resets
	// the cooldown clocks.
	j.mu.Lock()
	err = j.recordLocked(Event{Type: EvAdopted, Time: time.Now()})
	j.mu.Unlock()
	if err != nil {
		return false, err
	}
	j.lastTick = time.Now()
	j.lastDoneCount = len(j.core.Done)

	// Registration, the closed re-check, and the WaitGroup reservation
	// are one atomic step: a Close that has already passed its jobs
	// snapshot (and may be inside wg.Wait) must not gain a job it will
	// never stop.
	b.mu.Lock()
	if b.closed {
		// Close raced the adoption: the job stays un-adopted (its
		// journal is untouched; the next broker recovers it).
		b.mu.Unlock()
		return false, nil
	}
	b.registerLocked(j)
	b.wg.Add(1)
	b.mu.Unlock()
	b.sched.jobStarted(j.Tenant)
	j.mu.Lock()
	j.scaleUpLocked(j.policy.MinInstances, "recovery fleet")
	j.mu.Unlock()
	go func() {
		defer b.wg.Done()
		j.run()
	}()
	return true, nil
}

// register adds a job to the index and keeps nextID ahead of every
// adopted ID so new submissions never collide.
func (b *Broker) register(j *Job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.registerLocked(j)
}

func (b *Broker) registerLocked(j *Job) {
	b.jobs[j.ID] = j
	b.order = append(b.order, j.ID)
	var n int
	if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n > b.nextID {
		b.nextID = n
	}
}

// loadShared reads back a job's staged shared data.
func (b *Broker) loadShared(jobID string) (map[string][]byte, error) {
	prefix := journalSharedPrefix + jobID + "/"
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

// removeJobJournal best-effort deletes a job's journal object and
// staged shared data — used on Submit failure paths after the journal
// was opened, so an abandoned submission cannot be adopted later.
func (b *Broker) removeJobJournal(id string) {
	if !b.cfg.journalEnabled() {
		return
	}
	store := b.cfg.Env.Blob
	_ = (journal.Log{Store: store, Bucket: b.cfg.JournalBucket, Key: journalKey(id)}).Delete()
	if keys, err := store.List(b.cfg.JournalBucket, journalSharedPrefix+id+"/"); err == nil {
		for _, k := range keys {
			_ = store.Delete(b.cfg.JournalBucket, k)
		}
	}
}

// removeJobResources best-effort deletes a job's queues and buckets
// from the shared environment.
func (b *Broker) removeJobResources(ccCfg classiccloud.Config) {
	q := b.cfg.Env.Queue
	_ = q.DeleteQueue(ccCfg.TaskQueue())
	_ = q.DeleteQueue(ccCfg.MonitorQueue())
	if ccCfg.DeadLetterQueue != "" {
		_ = q.DeleteQueue(ccCfg.DeadLetterQueue)
	}
	_ = b.cfg.Env.Blob.DeleteBucket(ccCfg.InputBucket())
	_ = b.cfg.Env.Blob.DeleteBucket(ccCfg.OutputBucket())
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
