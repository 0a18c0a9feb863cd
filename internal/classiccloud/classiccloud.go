// Package classiccloud implements the paper's Classic Cloud processing
// model (Figure 1): a client uploads input files to cloud storage and
// populates a scheduling queue with one task message per file;
// independent workers running on cloud instances pull tasks from the
// queue, download the input, run the configured executable, upload the
// result, and only then delete the task message. The queue's visibility
// timeout provides fault tolerance — a task whose worker dies reappears
// and is re-executed — and task idempotency makes duplicate execution
// harmless. A monitoring queue reports completions back to the client.
package classiccloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
)

// Env bundles the cloud infrastructure services a deployment uses —
// the (S3/Azure Blob, SQS/Azure Queue) pair. Queue is any queue.API:
// a single in-process service, a remote service over HTTP, or a
// shard.Router fanning the namespace across many services.
type Env struct {
	Blob  *blob.Store
	Queue queue.API
}

// Task describes one unit of work: a single input file producing a
// single output file, as in the paper's applications.
type Task struct {
	ID           string `json:"id"`
	InputBucket  string `json:"input_bucket"`
	InputKey     string `json:"input_key"`
	OutputBucket string `json:"output_bucket"`
	OutputKey    string `json:"output_key"`
}

// Executor is the "configured executable program" a worker runs on each
// downloaded input file.
type Executor interface {
	// Name identifies the application (for queue/bucket naming).
	Name() string
	// Execute transforms one input file into one output file. It must be
	// deterministic or at least idempotent: the Classic Cloud model may
	// run a task more than once.
	Execute(task Task, input []byte) ([]byte, error)
}

// Preloader is implemented by executors that must stage shared data on
// each instance before processing tasks — the paper's BLAST database
// download-and-extract step.
type Preloader interface {
	Preload(env Env) error
}

// ReceiveBatch is how many tasks a worker pulls per receive call. Task
// acknowledgements and monitor reports are batched the same way, so a
// worker costs 3 requests per ReceiveBatch tasks instead of 3 per task —
// and a task can be up to a batch's execution old before the monitor
// queue says so, which a controller predicting completion allows for.
// With SubmitFiles sending and WaitForCompletion draining
// queue.MaxBatch messages per request, a task's whole queue bill is
// about 1/MaxBatch + 3/ReceiveBatch + 2/MaxBatch requests:
// 0.1 + 0.75 + 0.2 = 1.05.
const ReceiveBatch = 4

// The rest of a worker's queue discipline is the same in every
// deployment too.
const (
	// longPollWait is how long an idle worker (or a client waiting for
	// completion reports) blocks inside the queue's long-poll receive
	// before re-checking its stop signal: idle workers park on the
	// queue's wait list and wake the moment a task arrives.
	longPollWait = 50 * time.Millisecond
	// receiveBackoff spaces a worker's retries after a failed receive.
	receiveBackoff = 2 * time.Millisecond
	// heartbeatsPerLease sets how often a worker renews its task leases
	// (ChangeVisibility) while processing — every VisibilityTimeout /
	// heartbeatsPerLease — so tasks slower than the visibility timeout
	// are not spuriously redelivered: the long-running-worker pattern
	// the queue API exists to support.
	heartbeatsPerLease = 3
)

// Config tunes a deployment.
type Config struct {
	JobName           string        // names queues and buckets
	VisibilityTimeout time.Duration // task lease length (default 1m)
	DownloadRetries   int           // GET retries for eventual consistency (default 8)
	RetryBackoff      time.Duration // spacing between download retries (default 2ms)
	// CrashBeforeDelete is a fault-injection hook: when it returns true
	// the worker "dies" after executing but before deleting the task, so
	// the visibility timeout must recover the work.
	CrashBeforeDelete func(workerID int, task Task) bool
	// MaxReceives caps deliveries per task message. A message received
	// more than MaxReceives times is treated as poison: it is removed
	// from the task queue and, when DeadLetterQueue is set, parked there
	// for offline inspection (the SQS redrive-policy pattern). 0 disables
	// the cap, preserving the seed's retry-forever behaviour.
	MaxReceives int
	// DeadLetterQueue receives poison task messages (over the receive
	// cap, or undecodable). Empty means poison messages are dropped.
	DeadLetterQueue string
	// InstanceType labels this deployment's monitor reports with the
	// instance type running the workers (cloud.InstanceType.Key() form,
	// "provider/name"), so per-type service-time calibration can keep a
	// mixed fleet's samples apart. Empty omits the label (reports from
	// before the field existed parse the same way).
	InstanceType string
}

func (c Config) withDefaults() Config {
	if c.JobName == "" {
		c.JobName = "job"
	}
	if c.VisibilityTimeout == 0 {
		c.VisibilityTimeout = time.Minute
	}
	if c.DownloadRetries == 0 {
		c.DownloadRetries = 8
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	return c
}

// TaskQueue returns the job's scheduling queue name. Queue names use
// the job name as a placement-group prefix ("job/tasks"), so a sharded
// queue deployment (internal/queue/shard) co-locates one job's task,
// monitor, and dead-letter queues on a single shard and its queue
// traffic never crosses shards.
func (c Config) TaskQueue() string { return c.JobName + "/tasks" }

// MonitorQueue returns the job's monitoring queue name.
func (c Config) MonitorQueue() string { return c.JobName + "/monitor" }

// InputBucket returns the job's input bucket name.
func (c Config) InputBucket() string { return c.JobName + "-input" }

// OutputBucket returns the job's output bucket name.
func (c Config) OutputBucket() string { return c.JobName + "-output" }

// Task terminal statuses reported on the monitor queue.
const (
	StatusDone = "done"
	// StatusDead marks a task that exhausted its receive cap and was
	// parked on the dead-letter queue instead of completing.
	StatusDead = "dead"
)

// MonitorReport is the completion report workers push to the monitor
// queue, one JSON document per settled task.
type MonitorReport struct {
	TaskID   string `json:"task_id"`
	WorkerID int    `json:"worker_id"`
	Status   string `json:"status"` // StatusDone or StatusDead
	// ServiceTime is the worker-measured duration of the task pipeline
	// (download → execute → upload), the per-task service time the
	// paper's variability analysis distributes. Zero for dead-letter
	// reports and for reports written before the field existed.
	ServiceTime time.Duration `json:"service_ns,omitempty"`
	// InstanceType is the reporting instance's type key
	// ("provider/name"); omitted by deployments that did not set
	// Config.InstanceType, and old reports parse the same.
	InstanceType string `json:"instance_type,omitempty"`
}

// Settlement is the one piece of coordination state a job has: which
// tasks the monitoring queue has reported settled. It is a fold over
// monitor reports, shared by the client that waits on a job in memory
// (WaitForCompletion) and by the broker, whose journaled job record
// embeds it (so the exported field names are part of the broker's
// snapshot format).
type Settlement struct {
	Done map[string]bool
	Dead map[string]bool
	Dups int // tasks reported done more than once (re-execution)
}

// NewSettlement returns an empty fold.
func NewSettlement() Settlement {
	return Settlement{Done: make(map[string]bool), Dead: make(map[string]bool)}
}

// Settle folds one batch of reported task IDs. It is idempotent in the
// set of settled tasks — a replayed report can be counted as a
// duplicate but never lost and never settles a task twice.
func (s *Settlement) Settle(done, dead []string) {
	for _, id := range done {
		if s.Done[id] {
			s.Dups++
		}
		s.Done[id] = true
	}
	for _, id := range dead {
		s.Dead[id] = true
	}
}

// DeadOnly counts dead-lettered tasks that never completed. A task can
// land in both sets (one delivery burned the receive cap while a slow
// worker finished anyway); completion wins, so counts sum to the task
// total.
func (s *Settlement) DeadOnly() int {
	n := 0
	for id := range s.Dead {
		if !s.Done[id] {
			n++
		}
	}
	return n
}

// Settled counts tasks with a terminal status (done or dead).
func (s *Settlement) Settled() int { return len(s.Done) + s.DeadOnly() }

// Client drives a Classic Cloud job: setup, submission, and completion
// tracking.
type Client struct {
	env Env
	cfg Config
}

// NewClient returns a client for the given environment.
func NewClient(env Env, cfg Config) *Client {
	return &Client{env: env, cfg: cfg.withDefaults()}
}

// Setup creates the job's queues and buckets. It is idempotent.
func (c *Client) Setup() error {
	queues := []string{c.cfg.TaskQueue(), c.cfg.MonitorQueue()}
	if c.cfg.DeadLetterQueue != "" {
		queues = append(queues, c.cfg.DeadLetterQueue)
	}
	for _, q := range queues {
		if err := c.env.Queue.CreateQueue(q); err != nil && !errors.Is(err, queue.ErrQueueExists) {
			return fmt.Errorf("classiccloud: creating queue %s: %w", q, err)
		}
	}
	for _, b := range []string{c.cfg.InputBucket(), c.cfg.OutputBucket()} {
		if err := c.env.Blob.CreateBucket(b); err != nil && !errors.Is(err, blob.ErrBucketExists) {
			return fmt.Errorf("classiccloud: creating bucket %s: %w", b, err)
		}
	}
	return nil
}

// SubmitFiles uploads each named input file to the input bucket and
// enqueues one task message per file, in sorted name order, sent
// queue.MaxBatch at a time: a job of n tasks costs ⌈n/MaxBatch⌉ queue
// requests (and as many journal records on a durable queue), not n.
// Each batch's inputs are staged before its messages become visible.
// On error, whole earlier batches stay enqueued. Output keys get an
// ".out" suffix.
func (c *Client) SubmitFiles(files map[string][]byte) ([]Task, error) {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	// Deterministic submission order simplifies reproducibility.
	sort.Strings(names)
	tasks := c.cfg.TasksFromIDs(names)
	bodies := make([][]byte, 0, queue.MaxBatch)
	for start := 0; start < len(tasks); start += queue.MaxBatch {
		batch := tasks[start:min(start+queue.MaxBatch, len(tasks))]
		bodies = bodies[:0]
		for _, task := range batch {
			if err := c.env.Blob.Put(task.InputBucket, task.InputKey, files[task.ID]); err != nil {
				return nil, fmt.Errorf("classiccloud: uploading %s: %w", task.ID, err)
			}
			body, err := json.Marshal(task)
			if err != nil {
				return nil, fmt.Errorf("classiccloud: encoding task: %w", err)
			}
			bodies = append(bodies, body)
		}
		if _, err := c.env.Queue.SendMessageBatch(c.cfg.TaskQueue(), bodies); err != nil {
			return nil, fmt.Errorf("classiccloud: enqueueing %s..%s: %w",
				batch[0].ID, batch[len(batch)-1].ID, err)
		}
	}
	return tasks, nil
}

// TasksFromIDs reconstructs the task set SubmitFiles created for these
// IDs from the deterministic naming convention (input key = ID, output
// key = ID + ".out"). It is the single definition of that convention:
// SubmitFiles and recovering controllers agree through it, so a job is
// re-adopted from its task IDs alone — Setup is idempotent, and nothing
// is re-uploaded or re-enqueued.
func (c Config) TasksFromIDs(taskIDs []string) []Task {
	tasks := make([]Task, len(taskIDs))
	for i, id := range taskIDs {
		tasks[i] = Task{
			ID:           id,
			InputBucket:  c.InputBucket(),
			InputKey:     id,
			OutputBucket: c.OutputBucket(),
			OutputKey:    id + ".out",
		}
	}
	return tasks
}

// Report summarizes a completed job.
type Report struct {
	Completed     int
	DeadLettered  int // tasks parked on the dead-letter queue
	Duplicates    int // tasks reported done more than once (re-execution)
	Elapsed       time.Duration
	QueueRequests int64
}

// DrainMonitor moves one batch of completion reports off the monitoring
// queue: receive (long-polling up to wait), decode, hand the reports to
// settle, and — only when settle accepts them — acknowledge the batch
// with one delete. Settlement strictly precedes deletion, so a consumer
// that dies (or refuses the batch) between the two sees the reports
// again after the visibility timeout; Settlement folds the replay
// idempotently. It returns how many messages were consumed: 0 with a
// nil error means the queue was empty or settle refused, an error with
// a positive count means the batch is settled but (part of) its delete
// failed and will redeliver.
func (c *Client) DrainMonitor(wait time.Duration, settle func([]MonitorReport) bool) (int, error) {
	qn := c.cfg.MonitorQueue()
	msgs, err := c.env.Queue.ReceiveMessageBatch(qn, c.cfg.VisibilityTimeout, queue.MaxBatch, wait)
	if err != nil || len(msgs) == 0 {
		return 0, err
	}
	receipts := make([]string, len(msgs))
	reports := make([]MonitorReport, 0, len(msgs))
	for i, m := range msgs {
		receipts[i] = m.ReceiptHandle
		var rep MonitorReport
		// A corrupt report is skipped (and deleted) rather than allowed to
		// abort the valid completions travelling alongside it.
		if json.Unmarshal(m.Body, &rep) == nil && rep.TaskID != "" {
			reports = append(reports, rep)
		}
	}
	if !settle(reports) {
		return 0, nil
	}
	_, err = c.env.Queue.DeleteMessageBatch(qn, receipts)
	return len(msgs), err
}

// WaitForCompletion drains the monitoring queue until every task has
// reported a terminal status — done (verifying outputs exist) or dead
// (parked on the dead-letter queue) — or the timeout expires.
func (c *Client) WaitForCompletion(tasks []Task, timeout time.Duration) (Report, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	s := NewSettlement()
	report := func() Report {
		return Report{Completed: len(s.Done), DeadLettered: s.DeadOnly(), Duplicates: s.Dups, Elapsed: time.Since(start)}
	}
	for s.Settled() < len(tasks) {
		if time.Now().After(deadline) {
			return report(), fmt.Errorf("classiccloud: timeout after %v with %d/%d tasks complete",
				timeout, s.Settled(), len(tasks))
		}
		// An empty long poll has already waited; just re-check the deadline.
		_, err := c.DrainMonitor(longPollWait, func(reports []MonitorReport) bool {
			var done, dead []string
			for _, rep := range reports {
				if rep.Status == StatusDead {
					dead = append(dead, rep.TaskID)
				} else {
					done = append(done, rep.TaskID)
				}
			}
			s.Settle(done, dead)
			return true
		})
		if err != nil {
			return Report{}, err
		}
	}
	// Verify all completed outputs are present (consistent read: the
	// client retries until visible in a real deployment). Dead-lettered
	// tasks produced no output by definition.
	for _, t := range tasks {
		if s.Dead[t.ID] && !s.Done[t.ID] {
			continue
		}
		if ok, err := c.env.Blob.Exists(t.OutputBucket, t.OutputKey); err != nil || !ok {
			return Report{}, fmt.Errorf("classiccloud: output %s missing after completion", t.OutputKey)
		}
	}
	rep := report()
	rep.QueueRequests = c.env.Queue.APIRequests()
	return rep, nil
}

// CollectOutputs downloads every task output.
func (c *Client) CollectOutputs(tasks []Task) (map[string][]byte, error) {
	out := make(map[string][]byte, len(tasks))
	for _, t := range tasks {
		data, err := c.env.Blob.GetConsistent(t.OutputBucket, t.OutputKey)
		if err != nil {
			return nil, fmt.Errorf("classiccloud: collecting %s: %w", t.OutputKey, err)
		}
		out[t.ID] = data
	}
	return out, nil
}

// Instance models one cloud VM running a pool of worker processes, the
// paper's "number of workers per instance" knob.
type Instance struct {
	env     Env
	cfg     Config
	exec    Executor
	stop    chan struct{}
	wg      sync.WaitGroup
	stats   InstanceStats
	stopped atomic.Bool
	killed  atomic.Bool
}

// InstanceStats counts worker activity.
type InstanceStats struct {
	TasksExecuted  atomic.Int64
	TasksAbandoned atomic.Int64 // crash-injected abandonments
	DeadLettered   atomic.Int64 // poison tasks parked on the dead-letter queue
	ExecErrors     atomic.Int64
	StaleDeletes   atomic.Int64 // task finished by us but lease had expired
	DownloadRetrys atomic.Int64
	// ReportErrors counts monitor-queue sends that failed; the tasks they
	// covered were left unacknowledged to be redelivered and re-reported.
	ReportErrors atomic.Int64
	// BusyNanos accumulates wall time workers spent inside the task
	// pipeline (download → execute → upload), the numerator of fleet
	// utilization.
	BusyNanos atomic.Int64
}

// StartInstance launches workersPerInstance worker goroutines. The
// executor's Preload (if any) runs once before workers start, like the
// paper's database staging.
func StartInstance(env Env, cfg Config, exec Executor, workersPerInstance int) (*Instance, error) {
	cfg = cfg.withDefaults()
	inst := &Instance{env: env, cfg: cfg, exec: exec, stop: make(chan struct{})}
	if p, ok := exec.(Preloader); ok {
		if err := p.Preload(env); err != nil {
			return nil, fmt.Errorf("classiccloud: preload: %w", err)
		}
	}
	for w := 0; w < workersPerInstance; w++ {
		inst.wg.Add(1)
		go inst.workerLoop(w)
	}
	return inst, nil
}

// Stop shuts the instance down and waits for workers to exit. Workers
// finish (and acknowledge) their current task first — the graceful
// drain of a planned scale-down.
func (inst *Instance) Stop() {
	if inst.stopped.CompareAndSwap(false, true) {
		close(inst.stop)
	}
	inst.wg.Wait()
}

// Kill simulates a worker crash or spot-instance preemption: workers
// abandon whatever task they are processing without acknowledging or
// uploading it, so the queue's visibility timeout must recover the
// work on another instance — the paper's fault-tolerance story
// exercised for real.
func (inst *Instance) Kill() {
	inst.killed.Store(true)
	inst.Stop()
}

// Stats exposes the instance counters.
func (inst *Instance) Stats() *InstanceStats { return &inst.stats }

func (inst *Instance) workerLoop(workerID int) {
	defer inst.wg.Done()
	for {
		select {
		case <-inst.stop:
			return
		default:
		}
		// Long poll: an idle worker parks on the queue's wait list and
		// wakes when a task arrives or a lease expires, instead of
		// burning a receive request every few milliseconds.
		msgs, err := inst.env.Queue.ReceiveMessageBatch(
			inst.cfg.TaskQueue(), inst.cfg.VisibilityTimeout,
			ReceiveBatch, longPollWait)
		if err != nil {
			select {
			case <-inst.stop:
				return
			case <-time.After(receiveBackoff):
			}
			continue
		}
		if len(msgs) == 0 {
			continue // the long poll already waited; just re-check stop
		}
		inst.processBatch(workerID, msgs)
	}
}

// processBatch runs every task of one receive batch, then reports the
// completed ones with a single batch send and acknowledges them with a
// single batch delete — 3 queue requests per batch on the happy path.
func (inst *Instance) processBatch(workerID int, msgs []queue.Message) {
	// One lease renewer covers the whole batch: tasks queued behind a
	// slow one must keep their leases alive too.
	var renew *leaseRenewer
	if heartbeat := inst.cfg.VisibilityTimeout / heartbeatsPerLease; heartbeat > 0 { // a ticker needs ≥ 1ns
		receipts := make([]string, len(msgs))
		for i, m := range msgs {
			receipts[i] = m.ReceiptHandle
		}
		renew = inst.startLeaseRenewer(receipts, heartbeat)
		defer renew.stop()
	}
	var ackReceipts []string
	var reports [][]byte
	for _, m := range msgs {
		var task Task
		if err := json.Unmarshal(m.Body, &task); err != nil {
			// Undecodable message: park it so it cannot wedge the queue.
			inst.deadLetter(workerID, "", m)
			renew.remove(m.ReceiptHandle)
			continue
		}
		if inst.cfg.MaxReceives > 0 && m.Receives > inst.cfg.MaxReceives {
			// Poison task: it has burned through its retry budget
			// (executor failures, repeated crashes) — take it out of
			// rotation instead of retrying forever.
			inst.deadLetter(workerID, task.ID, m)
			renew.remove(m.ReceiptHandle)
			continue
		}
		taskStart := time.Now()
		if inst.processTask(workerID, task) {
			ackReceipts = append(ackReceipts, m.ReceiptHandle)
			reports = append(reports, encodeReport(MonitorReport{
				TaskID: task.ID, WorkerID: workerID, Status: StatusDone,
				ServiceTime:  time.Since(taskStart),
				InstanceType: inst.cfg.InstanceType,
			}))
		} else {
			// The task was not acknowledged (failure, crash injection, or
			// preemption): stop renewing its lease so the visibility
			// timeout re-exposes it on schedule, not after the rest of
			// this batch finishes.
			renew.remove(m.ReceiptHandle)
		}
	}
	// Report BEFORE deleting, and delete only what was reported: a crash
	// or a failed send between the two then redelivers the task —
	// re-executed (idempotent) and re-reported (the settlement fold
	// counts the repeat) — instead of silently losing the settlement of
	// a deleted task, which no retry would ever repair.
	for start := 0; start < len(reports); start += queue.MaxBatch {
		end := min(start+queue.MaxBatch, len(reports))
		acks := ackReceipts[start:end]
		if _, err := inst.env.Queue.SendMessageBatch(inst.cfg.MonitorQueue(), reports[start:end]); err != nil {
			inst.stats.ReportErrors.Add(1)
			for _, receipt := range acks {
				renew.remove(receipt)
			}
			continue
		}
		results, err := inst.env.Queue.DeleteMessageBatch(inst.cfg.TaskQueue(), acks)
		if err != nil {
			continue
		}
		for _, r := range results {
			if r != nil {
				// Our lease expired and the task was re-issued; the result
				// is already uploaded and tasks are idempotent, so this is
				// harmless.
				inst.stats.StaleDeletes.Add(1)
			}
		}
	}
}

// encodeReport renders one monitor-queue report (a struct of strings
// and integers: Marshal cannot fail).
func encodeReport(rep MonitorReport) []byte {
	body, _ := json.Marshal(rep)
	return body
}

// deadLetter parks a poison message's body on the dead-letter queue
// (when configured), reports the task dead on the monitor queue so
// clients stop waiting for it, and only then removes the message from
// the task queue — the same report-before-delete order as processBatch.
// Any step failing leaves the message to be redelivered and
// dead-lettered again; the settlement fold absorbs a repeated report.
func (inst *Instance) deadLetter(workerID int, taskID string, m queue.Message) {
	if inst.cfg.DeadLetterQueue != "" {
		if _, err := inst.env.Queue.SendMessage(inst.cfg.DeadLetterQueue, m.Body); err != nil {
			return
		}
	}
	if taskID != "" {
		dead := encodeReport(MonitorReport{TaskID: taskID, WorkerID: workerID, Status: StatusDead})
		if _, err := inst.env.Queue.SendMessage(inst.cfg.MonitorQueue(), dead); err != nil {
			inst.stats.ReportErrors.Add(1)
			return
		}
	}
	if err := inst.env.Queue.DeleteMessage(inst.cfg.TaskQueue(), m.ReceiptHandle); err != nil {
		inst.stats.StaleDeletes.Add(1)
		return
	}
	inst.stats.DeadLettered.Add(1)
}

// processTask is the worker pipeline of Figure 1: download → execute →
// upload. It reports whether the task succeeded and should be
// acknowledged (batch-deleted) and reported done by the caller.
func (inst *Instance) processTask(workerID int, task Task) bool {
	start := time.Now()
	defer func() { inst.stats.BusyNanos.Add(int64(time.Since(start))) }()
	input, err := inst.downloadWithRetry(task.InputBucket, task.InputKey)
	if err != nil {
		// Leave the message undeleted; it will reappear and be retried.
		inst.stats.ExecErrors.Add(1)
		return false
	}
	output, err := inst.exec.Execute(task, input)
	if err != nil {
		inst.stats.ExecErrors.Add(1)
		return false // visibility timeout will re-expose the task
	}
	if inst.killed.Load() {
		// The instance was preempted mid-task: abandon without
		// acknowledging so the visibility timeout re-exposes the work.
		inst.stats.TasksAbandoned.Add(1)
		return false
	}
	if inst.cfg.CrashBeforeDelete != nil && inst.cfg.CrashBeforeDelete(workerID, task) {
		// Simulated worker death after doing the work but before the
		// acknowledgement: the canonical at-least-once failure.
		inst.stats.TasksAbandoned.Add(1)
		return false
	}
	if err := inst.env.Blob.Put(task.OutputBucket, task.OutputKey, output); err != nil {
		inst.stats.ExecErrors.Add(1)
		return false
	}
	inst.stats.TasksExecuted.Add(1)
	return true
}

// leaseRenewer extends the visibility timeout of a batch's receipts
// every heartbeat so long-running tasks — and tasks queued behind them
// in the same batch — keep their leases. A receipt drops out of renewal
// when it goes stale (deleted, or the lease was lost to another
// worker); renewal stops entirely when the batch finishes or the
// instance is killed (preempted work must reappear promptly).
type leaseRenewer struct {
	mu       sync.Mutex
	receipts map[string]bool
	done     chan struct{}
}

func (r *leaseRenewer) stop() { close(r.done) }

// remove drops one receipt from renewal — called when its task settles
// without an acknowledgement (failure, crash, preemption), so the lease
// expires on schedule and redelivery is not delayed by the rest of the
// batch still processing.
func (r *leaseRenewer) remove(receipt string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.receipts, receipt)
	r.mu.Unlock()
}

func (inst *Instance) startLeaseRenewer(receipts []string, heartbeat time.Duration) *leaseRenewer {
	r := &leaseRenewer{receipts: make(map[string]bool, len(receipts)), done: make(chan struct{})}
	for _, receipt := range receipts {
		r.receipts[receipt] = true
	}
	go func() {
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-ticker.C:
				if inst.killed.Load() {
					return
				}
				r.mu.Lock()
				live := make([]string, 0, len(r.receipts))
				for receipt := range r.receipts {
					live = append(live, receipt)
				}
				r.mu.Unlock()
				for _, receipt := range live {
					if err := inst.env.Queue.ChangeVisibility(
						inst.cfg.TaskQueue(), receipt, inst.cfg.VisibilityTimeout); err != nil {
						r.mu.Lock()
						delete(r.receipts, receipt)
						r.mu.Unlock()
					}
				}
			}
		}
	}()
	return r
}

// downloadWithRetry tolerates eventual-consistency NotFound responses by
// retrying, the standard client pattern on S3-era storage.
func (inst *Instance) downloadWithRetry(bucket, key string) ([]byte, error) {
	var lastErr error
	for i := 0; i < inst.cfg.DownloadRetries; i++ {
		data, err := inst.env.Blob.Get(bucket, key)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !errors.Is(err, blob.ErrNoSuchKey) {
			return nil, err
		}
		inst.stats.DownloadRetrys.Add(1)
		time.Sleep(inst.cfg.RetryBackoff)
	}
	return nil, fmt.Errorf("classiccloud: download %s/%s: %w", bucket, key, lastErr)
}

// FuncExecutor adapts a function to the Executor interface.
type FuncExecutor struct {
	AppName string
	Fn      func(task Task, input []byte) ([]byte, error)
}

// Name implements Executor.
func (f FuncExecutor) Name() string { return f.AppName }

// Execute implements Executor.
func (f FuncExecutor) Execute(task Task, input []byte) ([]byte, error) { return f.Fn(task, input) }
