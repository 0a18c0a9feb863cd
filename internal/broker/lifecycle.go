package broker

import (
	"errors"
	"fmt"
	"log"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/queue"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	// StateAborted marks a job shut down (Broker.Close) before every
	// task settled; outputs are partial.
	StateAborted JobState = "aborted"
)

// Job is one submission's full lifecycle: queues, fleet, ledger. Every
// durable fact about it — task set, policy, instance type, settlements,
// the instance ledger, the lifecycle phase — lives in `core`, the fold
// over the job's journal, and is read from there; everything else is a
// process-local runtime handle (queue client, instance handles,
// throughput estimates) that a recovering broker rebuilds or restarts
// from scratch.
type Job struct {
	ID     string
	App    string
	Tenant string

	// trace is the job's request-trace ID: every queue request made by
	// the control loop and the worker fleet carries it (via env, the
	// broker environment with a trace-scoped queue client), so one job's
	// traffic is attributable end to end in daemon slow-request logs. A
	// recovered job gets a fresh ID — each adoption is a new trace.
	trace string
	env   classiccloud.Env

	broker *Broker
	// ccCfg and cc address the job's queues and buckets. Both are pure
	// functions of the job ID and the broker config, fixed when the
	// handle is built; the one per-launch setting, the instance-type
	// label, is stamped on a copy at launch (scaleUpLocked).
	ccCfg classiccloud.Config
	cc    *classiccloud.Client
	exec  classiccloud.Executor
	jl    *jobJournal

	crashBudget atomic.Int64

	stop chan struct{}
	// finished is closed exactly once, when the job reaches a terminal
	// state (completed or aborted), so Wait blocks on a channel instead
	// of polling in a sleep loop.
	finished chan struct{}

	mu   sync.Mutex
	core jobRecord
	// insts maps ledger-entry IDs to the instances this process
	// launched. Ledger entries without a handle belong to a previous
	// (crashed) broker process.
	insts map[int]*classiccloud.Instance
	// ended is how the job ended (end), set once; from then on no record
	// reaches its journal.
	ended         ending
	lastTick      time.Time
	lastDoneCount int
	throughput    float64       // tasks/sec/instance, smoothed
	serviceTime   time.Duration // worker-measured, per task, smoothed (completionETA)
	stopWG        sync.WaitGroup
	// loop counts the control loop (run) from the job's registration on,
	// so that an ending from outside it can wait for it to exit.
	loop sync.WaitGroup
	// unstaged counts the tasks Submit has not enqueued yet; the
	// autoscaler sees them as visible backlog.
	unstaged int
}

// errEnded is recordLocked's refusal once the job has ended.
var errEnded = errors.New("broker: job has ended")

// recordLocked journals one event, then folds it into the in-memory
// state. The journal is the source of truth: a transition whose write
// fails does not happen (the caller retries on a later tick). Once the
// job has ended nothing is written: its journal stays as the ending left
// it. Caller holds j.mu.
func (j *Job) recordLocked(ev Event) error {
	if j.ended != notEnded {
		return errEnded
	}
	if err := j.jl.write(ev); err != nil {
		return err
	}
	if err := j.core.apply(ev); err != nil {
		return err
	}
	if err := j.jl.maybeCompact(&j.core); err != nil {
		j.swallowed("compaction", err)
	}
	return nil
}

// swallowed accounts for an error a best-effort path drops instead of
// returning: it is counted in broker_errors_total{site} and logged the
// first time each site fails, with the job's trace ID so the failing
// requests can be found in the queue daemons' logs.
func (j *Job) swallowed(site string, err error) {
	j.broker.met.inc("error_" + site)
	if _, logged := j.broker.errLogged.LoadOrStore(site, true); !logged {
		log.Printf("broker: %s failed for job %s (trace %s): %v; further %s failures are only counted, in broker_errors_total",
			site, j.ID, j.trace, err, site)
	}
}

// instanceTypeLocked resolves the job's journaled instance type against
// the catalog. Caller holds j.mu.
func (j *Job) instanceTypeLocked() cloud.InstanceType {
	cfg := j.broker.cfg
	return resolveInstanceType(j.core.Provider, j.core.Instance, cfg.Catalog, cfg.DefaultInstance)
}

// run is the job's control loop. Once per TickInterval it drains the
// monitor queue in bulk (full batches: the reports of a whole tick),
// applies one autoscale decision with its fair-share grant, and
// considers a re-plan. When the job is seen complete is NOT the tick's
// decision: the next drain is due at the tick or at the job's predicted
// completion (completionETA), whichever is sooner, and a drain that is
// due before the tick waits on the queue's long poll for what is left
// of the tick instead of returning empty. A prediction that was early
// therefore parks until the next report lands, one that was late costs
// its error, and a job whose tasks are far from done behaves exactly as
// it did when the tick was the only cadence. The loop exits once the job
// has ended, however it ended. A parked poll is not interruptible, so an
// ending from outside the loop (Close, Halt, a withdrawal) waits out at
// most one tick of it.
func (j *Job) run() {
	tick := j.broker.cfg.TickInterval
	next := time.Now().Add(tick)
	for {
		if !j.sleep(min(time.Until(next), j.completionETA())) {
			return
		}
		left := time.Until(next)
		drained := j.drainMonitor(left)
		if j.maybeComplete() {
			return
		}
		if left <= 0 {
			j.autoscaleTick()
			j.replanTick()
			// The next boundary on the same grid, skipping any that a long
			// drain ran past.
			next = next.Add(tick * (1 + time.Since(next)/tick))
		} else if drained == 0 && !j.sleep(time.Until(next)) {
			// Nothing came of waiting — a receive that failed, a checkpoint
			// the journal refused — so the loop sat out the rest of the tick,
			// which retries as it always has, and was told to stop meanwhile.
			return
		}
	}
}

// sleep waits for d (not at all when d <= 0) and reports false when the
// job was told to stop instead.
func (j *Job) sleep(d time.Duration) bool {
	select {
	case <-j.stop:
		return false
	default:
	}
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-j.stop:
		return false
	case <-timer.C:
		return true
	}
}

// completionETA predicts how soon the job can be complete: the tasks
// still to run times the service time the workers have been reporting,
// spread over the running workers. A worker reports a batch at a time,
// so up to a batch per worker may have been executed and not yet
// reported; the prediction counts classiccloud.ReceiveBatch of them per
// worker as done, because a guess that is early only parks on the queue
// while one that is late is lag. A worker whose tasks are quicker than
// its receives takes queue.MaxBatch at a time, but each task beyond
// ReceiveBatch then runs in less than a receive, so counting them too
// would move the prediction by a few round trips at most. Before
// anything has settled it is zero — the loop waits on the queue for the
// first report, which is what lets a job shorter than one tick finish
// before it. Without a basis (reports that carried no service time, no
// running instance) it is forever, and the tick decides.
func (j *Job) completionETA() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	settled, workers := j.core.Settled(), j.core.fleetSize()*j.broker.cfg.WorkersPerInstance
	switch {
	case settled == 0:
		return 0
	case j.serviceTime == 0 || workers == 0:
		return math.MaxInt64
	}
	toRun := len(j.core.TaskIDs) - settled - workers*classiccloud.ReceiveBatch
	return j.serviceTime / time.Duration(workers) * time.Duration(max(toRun, 0))
}

// drainMonitor consumes the waiting completion reports, a batch at a
// time, through the Classic Cloud client's one drain primitive, and
// returns how many it took off the queue. Only the first receive waits
// (up to wait, for a first report to arrive); a batch that comes back
// short of full emptied the queue.
func (j *Job) drainMonitor(wait time.Duration) (drained int) {
	for {
		n, err := j.cc.DrainMonitor(wait, j.checkpoint)
		if err != nil {
			// A failed or partial delete only means some reports
			// redeliver; the fold deduplicates them.
			site := "monitor_delete"
			if n == 0 {
				site = "monitor_receive"
			}
			j.swallowed(site, err)
		}
		drained += n
		if n < queue.MaxBatch {
			return drained
		}
		wait = 0
	}
}

// checkpoint journals one drained batch's settlements and reports
// whether the batch may be deleted. The checkpoint is journaled BEFORE
// the reports leave the monitor queue: if the broker dies between the
// two, the redelivered reports fold into the done-set idempotently — a
// settlement can be replayed but never lost and never double-counted.
func (j *Job) checkpoint(reports []classiccloud.MonitorReport) bool {
	j.mu.Lock()
	// Reports whose task is already settled are broker-side
	// redeliveries (a crash between checkpoint and delete, or a
	// failed delete) — they are dropped, not journaled, so the
	// Duplicates metric is never inflated by the broker's own
	// recovery. A repeat WITHIN one batch is a genuine executor
	// double-report and still counts.
	seen := make(map[string]bool, len(reports))
	var done, dead []string
	var samples []classiccloud.MonitorReport
	for _, rep := range reports {
		if rep.Dead {
			if !j.core.Dead[rep.TaskID] {
				dead = append(dead, rep.TaskID)
			}
		} else if !j.core.Done[rep.TaskID] || seen[rep.TaskID] {
			done = append(done, rep.TaskID)
			if rep.ServiceTime > 0 {
				samples = append(samples, rep)
			}
		}
		seen[rep.TaskID] = true
	}
	var err error
	if len(done) > 0 || len(dead) > 0 {
		err = j.recordLocked(Event{Type: EvCheckpoint, Time: time.Now(), Done: done, Dead: dead})
	}
	if err == nil && len(samples) > 0 {
		// Smoothed per drained batch, like throughput per tick: the tasks
		// still to run resemble the latest ones more than the first.
		var sum time.Duration
		for _, s := range samples {
			sum += s.ServiceTime
		}
		mean := sum / time.Duration(len(samples))
		if j.serviceTime != 0 {
			mean = (mean + j.serviceTime) / 2
		}
		j.serviceTime = mean
	}
	j.mu.Unlock()
	if err != nil {
		// Not checkpointed ⇒ not consumed: leave the reports to
		// reappear after their visibility timeout. An ended job settles
		// nothing, which is no fault.
		if !errors.Is(err, errEnded) {
			j.swallowed("checkpoint", err)
		}
		return false
	}
	// Observed only after the checkpoint is durable (reports from a
	// failed checkpoint redeliver and must not be histogrammed twice)
	// and outside the job lock: the labeled per-type histogram lookup
	// takes the registry mutex, which a concurrent render holds while
	// its gauge funcs take job locks.
	j.broker.met.settled(len(done), len(dead), samples)
	// Feed the calibration catalog the same post-checkpoint samples,
	// grouped by reporting instance type (reports without the label are
	// skipped). Best-effort and outside the job lock: the catalog
	// journals to the blob store under its own lock, and losing a batch
	// only delays calibration.
	if cal := j.broker.cfg.Calibration; cal != nil && len(samples) > 0 {
		byType := make(map[string][]time.Duration)
		for _, s := range samples {
			if s.InstanceType != "" {
				byType[s.InstanceType] = append(byType[s.InstanceType], s.ServiceTime)
			}
		}
		for it, ds := range byType {
			if err := cal.Record(j.App, it, ds); err != nil {
				j.swallowed("calibration_record", err)
			}
		}
	}
	return true
}

// maybeComplete completes the job once every task has settled and
// reports whether the job has ended, by this or any other ending: the
// loop's cue to exit.
func (j *Job) maybeComplete() bool { return j.end(endComplete) != notEnded }

// autoscaleTick observes the queues and applies one policy decision,
// with scale-ups granted by the broker's fair-share scheduler.
func (j *Job) autoscaleTick() {
	visible, inflight, err := j.env.Queue.ApproximateCount(j.ccCfg.TaskQueue())
	if err != nil {
		return
	}
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	fleet := j.core.fleetSize()
	// Fair-share reclaim: while another tenant is starved below its
	// share and ours is above its own, surrender one instance per tick
	// (gentle, like the policy's own scale-down) regardless of
	// cooldowns; the scheduler's deficit reservation hands the freed
	// capacity to the starved tenant, not back to us.
	if fleet > 0 && j.broker.sched.surplus(j.Tenant) > 0 {
		j.scaleDownToLocked(fleet-1, "fair-share reclaim")
		return
	}
	// Observed per-instance throughput, exponentially smoothed.
	if dt := now.Sub(j.lastTick).Seconds(); dt > 0 && fleet > 0 {
		rate := float64(len(j.core.Done)-j.lastDoneCount) / dt / float64(fleet)
		const alpha = 0.5
		j.throughput = alpha*rate + (1-alpha)*j.throughput
	}
	j.lastDoneCount = len(j.core.Done)
	j.lastTick = now

	d := j.core.Policy.Decide(Observation{
		Now:                   now,
		Visible:               visible + j.unstaged,
		InFlight:              inflight,
		Fleet:                 fleet,
		ThroughputPerInstance: j.throughput,
		LastScaleUp:           j.core.LastUp,
		LastScaleDown:         j.core.LastDown,
	})
	switch {
	case d.Delta > 0:
		j.broker.met.inc("decision_up")
		j.scaleUpLocked(d.Delta, d.Reason)
	case d.Delta < 0:
		j.broker.met.inc("decision_down")
		j.scaleDownToLocked(fleet+d.Delta, d.Reason)
	default:
		j.broker.met.inc("decision_hold")
	}
}

// scaleUpLocked asks the fair-share scheduler for up to delta instances
// of the job's current type and launches what it grants. A denied or
// trimmed grant is not an error: the next tick asks again, and the
// cooldown clock only advances when something actually launched. An
// ended job launches nothing, its EvScaledUp being refused. Caller holds
// j.mu.
func (j *Job) scaleUpLocked(delta int, reason string) {
	itype := j.instanceTypeLocked()
	ccCfg := j.ccCfg
	ccCfg.InstanceType = itype.Key()
	granted := j.broker.sched.acquire(j.Tenant, delta)
	for i := 0; i < granted; i++ {
		id := len(j.core.Ledger)
		if err := j.recordLocked(Event{
			Type: EvScaledUp, Time: time.Now(), InstanceID: id,
			Provider: string(itype.Provider), Instance: itype.Name,
			Fleet: j.core.fleetSize() + 1, Reason: reason,
		}); err != nil {
			j.broker.sched.release(j.Tenant, granted-i)
			return
		}
		inst, err := classiccloud.StartInstance(j.env, ccCfg, j.exec, j.broker.cfg.WorkersPerInstance)
		if err != nil {
			// Compensate the journaled launch so the ledger stays
			// truthful (factory preload failures already surfaced at
			// Submit); retireLocked releases this grant, the rest go
			// back here.
			j.retireLocked(id, Event{LaunchFailed: true, Reason: "launch failed: " + err.Error()})
			j.broker.sched.release(j.Tenant, granted-i-1)
			return
		}
		j.insts[id] = inst
		j.broker.met.inc("scale_up")
	}
}

// retireLocked is the one way an instance leaves a live fleet: journal
// its EvScaledDown (how carries what distinguishes the retirement —
// Reason, Preempted, LaunchFailed), fold it, give the scheduler its slot
// back, count it, and stop the instance. The journal write is
// best-effort here, unlike every other transition: a retirement must
// actually stop the instance and release its budget even when the
// journal is unreachable — otherwise Close()/completion would leak
// running workers forever, and the in-memory fleet must never carry a
// phantom instance whose launch failed. A stop event lost to a journal
// failure self-heals at the next adoption, which orphans the entry
// (billing it slightly long, never short). A preemption — a simulated
// reclaim nothing depends on — is refused instead when it cannot be
// journaled, and so is any retirement once the job has ended: its fleet
// is then the ending's to stop. Caller holds j.mu.
func (j *Job) retireLocked(id int, how Event) bool {
	how.Type, how.Time, how.InstanceID = EvScaledDown, time.Now(), id
	how.Fleet = j.core.fleetSize() - 1
	if err := j.recordLocked(how); err != nil {
		if how.Preempted || errors.Is(err, errEnded) {
			return false
		}
		j.swallowed("scale_down_journal", err)
		_ = j.core.apply(how) // cannot fail: id names a ledger entry
	}
	j.broker.sched.release(j.Tenant, 1)
	stop := (*classiccloud.Instance).Stop // graceful: current tasks finish and ack
	switch {
	case how.Preempted:
		j.broker.met.inc("preempt")
		stop = (*classiccloud.Instance).Kill // mid-task: un-acked work is abandoned to the visibility timeout
	case !how.LaunchFailed:
		j.broker.met.inc("scale_down")
	}
	j.stopInstanceLocked(id, stop)
	return true
}

// stopInstanceLocked stops one of this process's instances in the
// background (Stop and Kill both wait for its workers to exit); end
// waits on stopWG for all of them. An entry without a handle belonged to
// a previous broker process. Caller holds j.mu.
func (j *Job) stopInstanceLocked(id int, stop func(*classiccloud.Instance)) {
	if inst := j.insts[id]; inst != nil {
		j.stopWG.Add(1)
		go func() {
			defer j.stopWG.Done()
			stop(inst)
		}()
	}
}

// retireNewestLocked retires running instances newest first (LIFO
// retirement keeps the longest-running instances warm) for as long as
// want says so. Caller holds j.mu.
func (j *Job) retireNewestLocked(reason string, want func(*ledgerEntry) bool) {
	for i := len(j.core.Ledger) - 1; i >= 0; i-- {
		if le := j.core.Ledger[i]; le.running() && want(le) {
			j.retireLocked(le.ID, Event{Reason: reason})
		}
	}
}

// scaleDownToLocked retires instances until the running count is n.
// Caller holds j.mu.
func (j *Job) scaleDownToLocked(n int, reason string) {
	j.retireNewestLocked(reason, func(*ledgerEntry) bool { return j.core.fleetSize() > n })
}

// Preempt simulates a spot-instance reclaim: the newest running
// instance is killed mid-task, abandoning un-acknowledged work to the
// visibility timeout. It reports whether an instance was available to
// preempt; an ended job has none.
func (j *Job) Preempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := len(j.core.Ledger) - 1; i >= 0; i-- {
		if le := j.core.Ledger[i]; le.running() {
			return j.retireLocked(le.ID, Event{Preempted: true, Reason: "spot reclaim"})
		}
	}
	return false
}

func (j *Job) fleetSize() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.core.fleetSize()
}

// stopLoopLocked tells the control loop to exit. Caller holds j.mu.
func (j *Job) stopLoopLocked() {
	select {
	case <-j.stop:
	default:
		close(j.stop)
	}
}

// ending is how a job ended; the zero value is a job that has not.
type ending uint8

const (
	notEnded    ending = iota
	endComplete        // every task settled: the job's own loop (maybeComplete)
	endAbort           // Broker.Close before every task settled
	endHalt            // Broker.Halt: a crash, as far as the journal can tell
	endWithdraw        // a failed submission's staging (Broker.withdraw)
)

// end is the one way a job ends, how saying which, and returns how it
// ended: the first ending wins. It returns notEnded only for a
// completion not yet due, or whose EvCompleted the journal refused (the
// loop retries on its next drain). A completion or an abort journals its
// terminal event, retires the fleet (an EvScaledDown each, after the
// terminal event, as the fold expects) and closes finished; an abort the
// journal refuses still happens in memory, so the broker can wind down.
// A halt or a withdrawal journals nothing and kills the fleet, as a
// crash would. Every ending stops the loop and hands the scheduler back
// the job's instances and tenant slot, and from then on no record
// reaches the journal (recordLocked). end returns once the fleet has
// stopped and, unless it runs on the loop (a completion), the loop has
// exited — at most one parked monitor poll, one TickInterval, later — so
// a withdrawal can remove the job's queues and journal with nothing left
// to use or recreate them.
func (j *Job) end(how ending) ending {
	j.mu.Lock()
	first := j.ended == notEnded && j.endLocked(how)
	ended := j.ended
	j.mu.Unlock()
	if ended == notEnded {
		return notEnded
	}
	if first {
		j.broker.sched.jobEnded(j.Tenant)
	}
	if how != endComplete {
		j.loop.Wait()
	}
	j.stopWG.Wait()
	return ended
}

// endLocked is end's work on a job that has not ended; it reports
// whether the job ended. Caller holds j.mu.
func (j *Job) endLocked(how ending) bool {
	switch how {
	case endComplete:
		if j.core.Settled() < len(j.core.TaskIDs) || j.recordLocked(Event{Type: EvCompleted, Time: time.Now()}) != nil {
			return false
		}
		j.scaleDownToLocked(0, "job complete")
		close(j.finished)
	case endAbort:
		if err := j.recordLocked(Event{Type: EvAborted, Time: time.Now()}); err != nil {
			j.core.State, j.core.FinishedAt = StateAborted, time.Now()
		}
		j.scaleDownToLocked(0, "broker shutdown")
		close(j.finished)
	default:
		for _, le := range j.core.Ledger {
			if le.running() {
				j.broker.sched.release(j.Tenant, 1)
				j.stopInstanceLocked(le.ID, (*classiccloud.Instance).Kill)
			}
		}
	}
	j.ended = how
	j.stopLoopLocked()
	return true
}

// Wait blocks until the job completes or the timeout expires. An
// aborted job (broker shut down mid-run) returns an error: its
// outputs are partial. Completion is signalled on a channel, so Wait
// wakes the instant the job settles instead of polling on a fraction
// of the autoscaler tick.
func (j *Job) Wait(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-j.finished:
	case <-timer.C:
		// Both channels may be ready; a finished job is never a timeout.
		select {
		case <-j.finished:
		default:
			return j.unfinished("timeout")
		}
	}
	if j.Status().State == StateAborted {
		return j.unfinished("aborted")
	}
	return nil
}

func (j *Job) unfinished(how string) error {
	st := j.Status()
	return fmt.Errorf("broker: job %s %s with %d/%d tasks settled", j.ID, how, st.Done+st.Dead, st.Total)
}

// Status is a point-in-time job summary.
type Status struct {
	ID           string   `json:"id"`
	App          string   `json:"app"`
	Tenant       string   `json:"tenant"`
	State        JobState `json:"state"`
	InstanceType string   `json:"instance_type"`
	Total        int      `json:"total"`
	Done         int      `json:"done"`
	Dead         int      `json:"dead"`
	Duplicates   int      `json:"duplicates"`
	Fleet        int      `json:"fleet"`
	Elapsed      string   `json:"elapsed"`
	// Adoptions counts broker restarts that re-adopted this job.
	Adoptions int `json:"adoptions,omitempty"`
	// Trace is the job's request-trace ID; grep daemon logs for it to
	// follow the job's queue traffic across router and shards.
	Trace string `json:"trace,omitempty"`
	// PlannedInstances and PlanMeetsTarget report the cost-aware
	// selection when a target makespan was requested.
	PlannedInstances int  `json:"planned_instances,omitempty"`
	PlanMeetsTarget  bool `json:"plan_meets_target,omitempty"`
	// Replans counts mid-job re-plans; InstanceType above reflects the
	// latest one.
	Replans int `json:"replans,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	elapsed := time.Since(j.core.Started)
	if !j.core.FinishedAt.IsZero() {
		elapsed = j.core.FinishedAt.Sub(j.core.Started)
	}
	return Status{
		ID:               j.ID,
		App:              j.App,
		Tenant:           j.Tenant,
		State:            j.core.State,
		InstanceType:     j.instanceTypeLocked().Key(),
		Total:            len(j.core.TaskIDs),
		Done:             len(j.core.Done),
		Dead:             j.core.DeadOnly(),
		Duplicates:       j.core.Dups,
		Fleet:            j.core.fleetSize(),
		Elapsed:          elapsed.Round(time.Millisecond).String(),
		Adoptions:        j.core.Adoptions,
		Trace:            j.trace,
		PlannedInstances: j.core.PlannedInstances,
		PlanMeetsTarget:  j.core.PlanMeetsTarget,
		Replans:          j.core.Replans,
	}
}

// Events returns a copy of the scaling event log (a fold over the
// journal: launches, stops, preemptions, and restart orphanings).
func (j *Job) Events() []ScalingEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]ScalingEvent(nil), j.core.Events...)
}

// DeadLetters returns the IDs of dead-lettered tasks.
func (j *Job) DeadLetters() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.core.Dead))
	for id := range j.core.Dead {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Journal returns the job's event journal, read back from the blob
// store (nil when journaling is disabled). For a compacted journal only
// the events since the last snapshot remain — the earlier history has
// been folded into the snapshot that bounds recovery replay.
func (j *Job) Journal() ([]Event, error) {
	if j.jl == nil {
		return nil, nil
	}
	_, events, err := readJournal(j.jl.log.Store, j.jl.log.Bucket, j.ID)
	return events, err
}

// CostReport prices the job's fleet in the paper's hour-unit
// convention and compares it against a fixed fleet of MaxInstances
// held for the whole job.
type CostReport struct {
	InstanceType  string  `json:"instance_type"`
	Launches      int     `json:"launches"`
	Preemptions   int     `json:"preemptions"`
	Orphaned      int     `json:"orphaned,omitempty"` // instances lost to broker crashes
	HourUnits     float64 `json:"hour_units"`
	ComputeCost   float64 `json:"compute_cost_usd"`
	AmortizedCost float64 `json:"amortized_cost_usd"`
	QueueRequests int64   `json:"queue_requests"`
	QueueCost     float64 `json:"queue_cost_usd"`
	Elapsed       string  `json:"elapsed"`
	Utilization   float64 `json:"utilization"`
	TasksPerUSD   float64 `json:"tasks_per_usd"`
	// Fixed-fleet baseline: MaxInstances instances for the whole job,
	// billed in the same hour units.
	FixedFleet       int     `json:"fixed_fleet"`
	FixedHourUnits   float64 `json:"fixed_hour_units"`
	FixedComputeCost float64 `json:"fixed_compute_cost_usd"`
}

// CostReport computes the job's bill so far (final once completed). The
// ledger — launch and stop times plus the launched type per instance —
// is journaled state, so billing continues correctly across a broker
// restart, and a re-planned job bills each instance at the rate of the
// type it actually ran as (entries journaled before launches were
// type-stamped bill at the job's current type). Busy time is only
// known for instances this process launched (orphaned instances count
// their allocated time but report no busy time, which understates
// utilization after a crash — stated, not hidden).
func (j *Job) CostReport() CostReport {
	select {
	case <-j.finished:
		// The retiring workers' last long polls are still billed to the
		// job's queues after completion is signalled; the bill is final
		// once they have stopped. No instance is launched after the job
		// ends, so this waits for each retiring worker to exit: at most
		// one long poll, or the execution it is in the middle of (a
		// duplicate delivery after a lapsed lease). The HTTP /cost handler
		// and TenantReport accept that wait.
		j.stopWG.Wait()
	default:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	end := j.core.FinishedAt
	if end.IsZero() {
		end = now
	}
	itype, fixedFleet := j.instanceTypeLocked(), j.core.policy().MaxInstances
	var hourUnits, amortized, computeCost float64
	var busy, allocated time.Duration
	launches, preempts, orphans := 0, 0, 0
	for _, le := range j.core.Ledger {
		if le.Failed {
			// A journaled launch whose StartInstance failed: zero
			// lifetime, zero bill, not a launch.
			continue
		}
		launches++
		stop := le.Stopped
		if stop.IsZero() {
			stop = now
		}
		life := stop.Sub(le.Launched)
		it := resolveInstanceType(le.Provider, le.Instance, j.broker.cfg.Catalog, itype)
		bill := cloud.ComputeBill(it, 1, life)
		hourUnits += bill.HourUnits
		amortized += bill.Amortized
		computeCost += bill.ComputeCost
		if inst := j.insts[le.ID]; inst != nil {
			busy += time.Duration(inst.Stats().BusyNanos.Load())
		}
		allocated += life * time.Duration(j.broker.cfg.WorkersPerInstance)
		if le.Preempted {
			preempts++
		}
		if le.Orphaned {
			orphans++
		}
	}
	elapsed := end.Sub(j.core.Started)
	fixedBill := cloud.ComputeBill(itype, fixedFleet, elapsed)
	// Bill only this job's queues: the service-wide counter would
	// cross-charge concurrent jobs' traffic.
	svc := j.env.Queue
	queueReq := svc.APIRequestsFor(j.ccCfg.TaskQueue()) +
		svc.APIRequestsFor(j.ccCfg.MonitorQueue()) +
		svc.APIRequestsFor(j.ccCfg.DeadLetterQueue)
	rates := cloud.AWSRates
	if itype.Provider == cloud.Azure {
		rates = cloud.AzureRates
	}
	queueCost := rates.ServiceCost(int(queueReq), 0, 0, 0)
	return CostReport{
		InstanceType:     itype.Key(),
		Launches:         launches,
		Preemptions:      preempts,
		Orphaned:         orphans,
		HourUnits:        hourUnits,
		ComputeCost:      computeCost,
		AmortizedCost:    amortized,
		QueueRequests:    queueReq,
		QueueCost:        queueCost,
		Elapsed:          elapsed.Round(time.Millisecond).String(),
		Utilization:      fleetUtilization(busy, allocated),
		TasksPerUSD:      tasksPerDollar(len(j.core.Done), computeCost+queueCost),
		FixedFleet:       fixedFleet,
		FixedHourUnits:   fixedBill.HourUnits,
		FixedComputeCost: fixedBill.ComputeCost,
	}
}

// fleetUtilization is the elastic-fleet counterpart of Equation 1:
// the fraction of allocated instance time spent inside the task
// pipeline. Section 4.3's owned-cluster economics hinge on exactly this
// ratio — a fixed fleet sized for peak load idles between bursts, while
// an autoscaled fleet keeps it near 1.
func fleetUtilization(busy, allocated time.Duration) float64 {
	if allocated <= 0 {
		return 0
	}
	u := float64(busy) / float64(allocated)
	if u > 1 {
		// Concurrent workers on one instance can accumulate more busy
		// time than wall time; clamp to the meaningful range.
		u = 1
	}
	return u
}

// tasksPerDollar expresses throughput per unit cost, the figure of
// merit behind the paper's cost-effectiveness tables.
func tasksPerDollar(tasks int, costUSD float64) float64 {
	if costUSD <= 0 {
		return 0
	}
	return float64(tasks) / costUSD
}

// CollectOutputs downloads the outputs of completed tasks.
func (j *Job) CollectOutputs() (map[string][]byte, error) {
	j.mu.Lock()
	completed := make([]string, 0, len(j.core.Done))
	for _, id := range j.core.TaskIDs {
		if j.core.Done[id] {
			completed = append(completed, id)
		}
	}
	j.mu.Unlock()
	return j.cc.CollectOutputs(completed)
}
