// Package classiccloud implements the paper's Classic Cloud processing
// model (Figure 1): a client uploads input files to cloud storage and
// populates a scheduling queue with one task message per file;
// independent workers running on cloud instances pull tasks from the
// queue, download the input, run the configured executable, upload the
// result, and only then delete the task message. The queue's visibility
// timeout provides fault tolerance — a task whose worker dies reappears
// and is re-executed — and task idempotency makes duplicate execution
// harmless. A monitoring queue reports settled tasks back to the client,
// one message per acknowledged batch (MonitorReport):
//
//	str(instance type) || one or more × (str(task ID) || byte(0 done | 1 dead) || uvarint(service ns))
//
// Storage is batched the way the queue is. Each staged batch of up to
// queue.MaxBatch files is one input object, its files end to end, and a
// task message's body names the task, the object and the file's offset
// and length (taskMessage). A worker reads each contiguous run of a
// receive's files with one ranged GET, and writes each acknowledged
// batch's outputs as one self-describing output object (outputHeader),
// before it reports them. Collection lists the output bucket once and
// reads each object once. So where the paper's task costs three blob
// requests (a PUT at submission, a GET and a PUT in the worker), a short
// task here costs a tenth of a PUT each way and a share of its receive's
// reads: about 0.6 in all, as the queue leaves a few holes in the runs of
// every receive. The performance model (internal/perfmodel) keeps the
// paper's per-file transfers.
package classiccloud

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/codec"
	"repro/internal/queue"
)

// Env bundles the cloud infrastructure services a deployment uses —
// the (S3/Azure Blob, SQS/Azure Queue) pair. Queue is any queue.API:
// a single in-process service, a remote service over wire, or a
// shard.Router fanning the namespace across many services.
type Env struct {
	Blob  *blob.Store
	Queue queue.API
}

// Task describes one unit of work: a single input file producing a
// single output file, as in the paper's applications. The client names
// tasks by ID; a Task hands an Executor the task it runs. Its bytes travel
// batched: the input is a range of a staged batch object in InputBucket,
// which the task's message names, and the output one entry of a batch
// output object in OutputBucket, whose header names it.
type Task struct {
	ID           string
	InputBucket  string
	OutputBucket string
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

// ReceiveBatch is how many tasks a worker pulls per receive call while
// its tasks take longer than a receive. A worker whose last batch's
// tasks ran, on average, in less time each than its fastest receive
// that returned tasks (the queue's round trip) pulls queue.MaxBatch
// instead: ten such tasks are less work in hand than a few round trips,
// and the receive was the larger cost. A worker's first receive asks
// for ReceiveBatch.
//
// Each batch is acknowledged with one monitor message carrying all its
// reports, a poison message's dead report among them, then one delete:
// 3 requests per batch instead of 3 per task.
// A batch's report is sent, and then its delete, once its last task has
// run, in the background while the worker receives and runs the next
// batch; so a task can be up to a batch's execution old before the
// monitor queue says so, which a controller predicting completion allows
// for. With SubmitFiles sending queue.MaxBatch tasks per request, and
// DrainMonitor receiving and deleting up to queue.MaxBatch monitor
// messages per request, a long task's whole queue bill is about
// 1/MaxBatch + 3/ReceiveBatch + 2/(MaxBatch·ReceiveBatch) requests,
// 0.1 + 0.75 + 0.05, and a short task's about
// 1/MaxBatch + 3/MaxBatch + 2/(MaxBatch·MaxBatch), 0.1 + 0.3 + 0.02.
const ReceiveBatch = 4

// The rest of a worker's queue discipline is the same in every
// deployment too.
const (
	// longPollWait is how long an idle worker (or a client waiting for
	// completion reports) blocks inside the queue's long-poll receive
	// before re-checking its stop signal: idle workers park on the
	// queue's wait list and wake the moment a task arrives.
	longPollWait = 50 * time.Millisecond
	// drainPause is how long WaitForCompletion lets reports gather after
	// a drain that emptied the monitor queue.
	drainPause = time.Millisecond
	// receiveBackoff spaces a worker's retries after a failed receive.
	receiveBackoff = 2 * time.Millisecond
	// heartbeatsPerLease sets how often a worker renews its task leases
	// (ChangeVisibility) while processing — every VisibilityTimeout /
	// heartbeatsPerLease — so tasks slower than the visibility timeout
	// are not spuriously redelivered: the long-running-worker pattern
	// the queue API exists to support.
	heartbeatsPerLease = 3
	// downloadRetries and retryBackoff bound how long a worker waits out
	// eventual consistency on an input GET (NotFound): 8 tries, 2 ms
	// apart.
	downloadRetries = 8
	retryBackoff    = 2 * time.Millisecond
)

// Config tunes a deployment.
type Config struct {
	JobName           string        // names queues and buckets
	VisibilityTimeout time.Duration // task lease length (default 1m)
	// CrashBeforeDelete is a fault-injection hook: when it returns true
	// the worker "dies" after executing but before deleting the task, so
	// the visibility timeout must recover the work.
	CrashBeforeDelete func(workerID int, taskID string) bool
	// MaxReceives caps deliveries per task message. A message received
	// more than MaxReceives times is treated as poison: it is removed
	// from the task queue and, when DeadLetterQueue is set, parked there
	// for offline inspection (the SQS redrive-policy pattern). 0 disables
	// the cap, preserving the seed's retry-forever behaviour.
	MaxReceives int
	// DeadLetterQueue receives poison task messages: those over the
	// receive cap, and those whose body does not parse (parseTaskMessage),
	// the empty one included. Empty means poison messages are dropped.
	DeadLetterQueue string
	// InstanceType labels this deployment's monitor reports with the
	// instance type running the workers (cloud.InstanceType.Key() form,
	// "provider/name"), so per-type service-time calibration can keep a
	// mixed fleet's samples apart. Empty leaves the label empty.
	InstanceType string
}

func (c Config) withDefaults() Config {
	if c.JobName == "" {
		c.JobName = "job"
	}
	if c.VisibilityTimeout == 0 {
		c.VisibilityTimeout = time.Minute
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

// jobNames are a job's queue and bucket names, built once: an Instance
// keeps them for its life, so no task or request concatenates them.
type jobNames struct{ taskQueue, monitorQueue, inputBucket, outputBucket string }

func (c Config) names() jobNames {
	return jobNames{c.TaskQueue(), c.MonitorQueue(), c.InputBucket(), c.OutputBucket()}
}

// MonitorReport is one settled task as the monitor queue reports it. A
// worker reports each acknowledged batch, done and dead tasks alike, as
// one message that names its instance type once, then each task, a dead
// one with 0 ns:
//
//	str(instance type) || one or more × (str(task ID) || byte(0 done | 1 dead) || uvarint(service ns))
type MonitorReport struct {
	TaskID string
	Dead   bool // poison: dead-lettered (or dropped) instead of completing
	// ServiceTime is the worker-measured duration of the task pipeline
	// (download → execute → upload), the per-task service time the
	// paper's variability analysis distributes; zero in a dead report.
	ServiceTime time.Duration
	// InstanceType is the reporting instance's type key
	// ("provider/name"); empty when Config.InstanceType is.
	InstanceType string
}

// UnmarshalMonitorReports appends a monitor-queue body's reports to dst.
// Any queue client can write to a monitor queue, so it accepts exactly
// what a worker writes: no entry, an empty task ID, a status byte other
// than 0 or 1, a field cut short or an overlong varint is an error, and
// the reports decoded before the damage are returned with it.
func UnmarshalMonitorReports(dst []MonitorReport, body []byte) ([]MonitorReport, error) {
	d := codec.Dec{B: body}
	header := d.Bytes()
	if d.Err != nil || strLen(len(header)) != len(body)-len(d.B) || len(d.B) == 0 {
		return dst, codec.ErrCorrupt
	}
	instanceType := string(header)
	for len(d.B) > 0 {
		rest := len(d.B)
		id, status, ns := d.Bytes(), d.Byte(), d.U64()
		if d.Err != nil || len(id) == 0 || status > 1 || strLen(len(id))+1+uvarintLen(ns) != rest-len(d.B) {
			return dst, codec.ErrCorrupt
		}
		dst = append(dst, MonitorReport{TaskID: string(id), Dead: status == 1,
			ServiceTime: time.Duration(ns), InstanceType: instanceType})
	}
	return dst, nil
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
	env   Env
	cfg   Config
	names jobNames
}

// NewClient returns a client for the given environment.
func NewClient(env Env, cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{env: env, cfg: cfg, names: cfg.names()}
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

// SubmitFiles stages the named input files and enqueues one task message
// per file, and returns the task IDs: the file names, sorted. It submits
// one SubmitBatch of queue.MaxBatch tasks at a time in that order: a job
// of n tasks costs ⌈n/MaxBatch⌉ blob PUTs and as many queue requests
// (and journal records on a durable queue), not n of each. On error,
// whole earlier batches stay enqueued.
func (c *Client) SubmitFiles(files map[string][]byte) ([]string, error) {
	ids := make([]string, 0, len(files))
	for name := range files {
		ids = append(ids, name)
	}
	// Deterministic submission order simplifies reproducibility.
	sort.Strings(ids)
	inputs := make([][]byte, len(ids))
	for i, id := range ids {
		inputs[i] = files[id]
	}
	for start := 0; start < len(ids); start += queue.MaxBatch {
		end := min(start+queue.MaxBatch, len(ids))
		if err := c.SubmitBatch(ids[start:end], inputs[start:end]); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// SubmitBatch stages one batch of at most queue.MaxBatch tasks, whose
// inputs are inputs[i] for task ids[i]. It stores them end to end as one
// object of the input bucket, keyed by the batch's first task ID, and
// then enqueues the batch's messages with one send, each naming its
// file's range of that object (taskMessage), so no message becomes
// visible before its input is stored, and a job is re-adopted from its
// task IDs alone.
func (c *Client) SubmitBatch(ids []string, inputs [][]byte) error {
	if len(ids) == 0 {
		return nil
	}
	object, last := ids[0], ids[len(ids)-1]
	if err := c.env.Blob.Put(c.names.inputBucket, object, inputs...); err != nil {
		return fmt.Errorf("classiccloud: uploading %s..%s: %w", object, last, err)
	}
	// The bodies share one array, each capped at its own end.
	bodies := make([][]byte, len(ids))
	buf := make([]byte, 0, len(ids)*(2*len(object)+8))
	m := taskMessage{Object: []byte(object)}
	for i, id := range ids {
		n := len(buf)
		m.ID, m.Len = id, int64(len(inputs[i]))
		buf = m.appendTo(buf)
		bodies[i] = buf[n:len(buf):len(buf)]
		m.Off += m.Len
	}
	if _, err := c.env.Queue.SendMessageBatch(c.names.taskQueue, bodies); err != nil {
		return fmt.Errorf("classiccloud: enqueueing %s..%s: %w", object, last, err)
	}
	return nil
}

// taskMessage is a task message's body: the task's ID and where its input
// lies, Len bytes at Off in the staged batch object Object of the job's
// input bucket:
//
//	str(task ID) || str(object) || uvarint(offset) || uvarint(length)
//
// A parsed Object is a slice of the body, valid while its delivery is.
type taskMessage struct {
	ID       string
	Object   []byte
	Off, Len int64
}

func (m taskMessage) appendTo(b []byte) []byte {
	e := codec.Enc{B: b}
	e.Str(m.ID)
	e.Bytes(m.Object)
	e.U64(uint64(m.Off))
	e.U64(uint64(m.Len))
	return e.B
}

// parseTaskMessage decodes a task message's body. Any queue client can
// write to a task queue, so it accepts exactly what appendTo writes and
// nothing else: a body with no task ID, a field cut short, bytes after
// the last field, a varint longer than it needs to be, or a range that
// ends past 2^63−1 is poison, returned as ok = false and no task ID.
func parseTaskMessage(body []byte) (m taskMessage, ok bool) {
	d := codec.Dec{B: body}
	id, object := d.Bytes(), d.Bytes()
	off, n := d.U64(), d.U64()
	if d.Err != nil || len(d.B) != 0 || len(id) == 0 || n > math.MaxInt64 || off > math.MaxInt64-n ||
		strLen(len(id))+strLen(len(object))+uvarintLen(off)+uvarintLen(n) != len(body) {
		return taskMessage{}, false
	}
	return taskMessage{ID: string(id), Object: object, Off: int64(off), Len: int64(n)}, true
}

// uvarintLen is the length of v's (minimal) uvarint encoding.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// strLen is the length of the (minimal) str encoding of n bytes.
func strLen(n int) int { return uvarintLen(uint64(n)) + n }

// Report summarizes a completed job.
type Report struct {
	Completed    int
	DeadLettered int // tasks parked on the dead-letter queue
	Duplicates   int // tasks reported done more than once (re-execution)
	Elapsed      time.Duration
}

// DrainMonitor moves one batch of completion reports off the monitoring
// queue: receive up to queue.MaxBatch messages (long-polling up to
// wait), decode every report each one carries, hand the reports to
// settle, and — only when settle accepts them — acknowledge the batch
// with one delete. A message whose body is malformed from some byte on
// contributes the reports decoded before that byte and is deleted with
// the rest: redelivering it could never decode more. Settlement strictly
// precedes deletion, so a consumer that dies (or refuses the batch)
// between the two sees the reports again after the visibility timeout;
// Settlement folds the replay idempotently. It returns how many messages were consumed: 0 with a
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
	reports := make([]MonitorReport, 0, len(msgs)*queue.MaxBatch)
	for i, m := range msgs {
		receipts[i] = m.ReceiptHandle
		// A corrupt tail is dropped (and deleted) rather than allowed to
		// abort the valid completions travelling alongside it.
		reports, _ = UnmarshalMonitorReports(reports, m.Body)
	}
	if !settle(reports) {
		return 0, nil
	}
	_, err = c.env.Queue.DeleteMessageBatch(qn, receipts)
	return len(msgs), err
}

// WaitForCompletion drains the monitoring queue until every task of ids
// has reported a terminal status — done (verifying outputs exist) or dead
// (parked on the dead-letter queue) — or the timeout expires.
func (c *Client) WaitForCompletion(ids []string, timeout time.Duration) (Report, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	s := NewSettlement()
	report := func() Report {
		return Report{Completed: len(s.Done), DeadLettered: s.DeadOnly(), Duplicates: s.Dups, Elapsed: time.Since(start)}
	}
	for s.Settled() < len(ids) {
		if time.Now().After(deadline) {
			return report(), fmt.Errorf("classiccloud: timeout after %v with %d/%d tasks complete",
				timeout, s.Settled(), len(ids))
		}
		// An empty long poll has already waited; just re-check the deadline.
		n, err := c.DrainMonitor(longPollWait, func(reports []MonitorReport) bool {
			var done, dead []string
			for _, rep := range reports {
				if rep.Dead {
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
		// A drain short of a full receive emptied the queue. Pausing lets
		// the next receive take several batches' reports at once rather
		// than pay a receive and a delete for each one.
		if n > 0 && n < queue.MaxBatch && s.Settled() < len(ids) {
			time.Sleep(drainPause)
		}
	}
	// Verify all completed outputs are present (consistent read: the
	// client retries until visible in a real deployment). Dead-lettered
	// tasks produced no output by definition.
	if len(s.Done) > 0 {
		present := make(map[string]bool, len(s.Done))
		if err := c.readOutputs(func(id string, _ []byte) { present[id] = true }); err != nil {
			return Report{}, err
		}
		for _, id := range ids {
			if s.Done[id] && !present[id] {
				return Report{}, fmt.Errorf("classiccloud: output of %s missing after completion", id)
			}
		}
	}
	return report(), nil
}

// CollectOutputs downloads the outputs of tasks ids, keyed by ID: one
// List of the output bucket, then one GET of each batch output object. A
// task held by more than one object (redelivered after its output was
// written, and written again) takes its copy from the first object in
// key order; a deterministic executor wrote the same bytes to each.
func (c *Client) CollectOutputs(ids []string) (map[string][]byte, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := make(map[string][]byte, len(ids))
	err := c.readOutputs(func(id string, output []byte) {
		if _, dup := out[id]; want[id] && !dup {
			out[id] = output
		}
	})
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if _, ok := out[id]; !ok {
			return nil, fmt.Errorf("classiccloud: collecting %s: no output object holds it", id)
		}
	}
	return out, nil
}

// readOutputs lists the output bucket once, reads each output object once
// (consistent view), and hands visit every entry of each, objects in key
// order.
func (c *Client) readOutputs(visit func(id string, output []byte)) error {
	keys, err := c.env.Blob.List(c.names.outputBucket, "")
	if err != nil {
		return fmt.Errorf("classiccloud: listing outputs: %w", err)
	}
	for _, key := range keys {
		obj, err := c.env.Blob.GetConsistent(c.names.outputBucket, key)
		if err == nil {
			err = parseOutputs(obj, visit)
		}
		if err != nil {
			return fmt.Errorf("classiccloud: output object %s: %w", key, err)
		}
	}
	return nil
}

// outputHeader is the header of an acknowledged batch's output object,
// whose outputs follow it end to end in done's order:
//
//	uvarint(count) || count × (str(task ID) || uvarint(offset) || uvarint(length))
//
// each offset counting from the header's end.
func outputHeader(done []doneTask) []byte {
	e := codec.Enc{}
	e.U64(uint64(len(done)))
	off := 0
	for _, t := range done {
		e.Str(t.id)
		e.U64(uint64(off))
		e.U64(uint64(len(t.output)))
		off += len(t.output)
	}
	return e.B
}

// parseOutputs hands visit each entry of an output object (outputHeader):
// its task ID and its output, a capped slice of obj. A malformed object
// is an error, and an entry before the damage may have been visited.
func parseOutputs(obj []byte, visit func(id string, output []byte)) error {
	d := codec.Dec{B: obj}
	n := d.Len()
	for range n {
		d.Bytes()
		d.U64()
		d.U64()
	}
	if d.Err != nil {
		return d.Err
	}
	body := d.B
	d = codec.Dec{B: obj}
	d.Len()
	for range n {
		id, off, size := d.Bytes(), d.U64(), d.U64()
		if off > uint64(len(body)) || size > uint64(len(body))-off {
			return codec.ErrCorrupt
		}
		visit(string(id), body[off:off+size:off+size])
	}
	return nil
}

// Instance models one cloud VM running a pool of worker processes, the
// paper's "number of workers per instance" knob.
type Instance struct {
	env     Env
	cfg     Config
	names   jobNames
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
	// pipeline (download → execute → upload: the batch's ranged reads,
	// its executions and its output object's write), the numerator of
	// fleet utilization.
	BusyNanos atomic.Int64
}

// StartInstance launches workersPerInstance worker goroutines. The
// executor's Preload (if any) runs once before workers start, like the
// paper's database staging.
func StartInstance(env Env, cfg Config, exec Executor, workersPerInstance int) (*Instance, error) {
	cfg = cfg.withDefaults()
	inst := &Instance{env: env, cfg: cfg, names: cfg.names(), exec: exec, stop: make(chan struct{})}
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
// finish their current batch first, and Stop returns only once every
// batch's acknowledgement (report, then delete) has finished — the
// graceful drain of a planned scale-down.
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
// exercised for real. An acknowledgement already in flight, of tasks
// that finished before the kill, still completes before Kill returns.
func (inst *Instance) Kill() {
	inst.killed.Store(true)
	inst.Stop()
}

// Stats exposes the instance counters.
func (inst *Instance) Stats() *InstanceStats { return &inst.stats }

func (inst *Instance) workerLoop(workerID int) {
	defer inst.wg.Done()
	// One acknowledger serves every batch this worker takes and renews
	// their leases. It holds at most one acknowledgement: handing it the
	// next waits for the previous. Stop and Kill wait for it too.
	leases := &leaseSet{receipts: make(map[string]struct{}, 2*ReceiveBatch)}
	acks := make(chan batchAck)
	defer close(acks)
	inst.wg.Add(1)
	go inst.acknowledger(acks, leases)
	// want is the next receive's size (ReceiveBatch's comment), fastest
	// the quickest receive so far that returned tasks: one that waited in
	// the long poll is slower, so the minimum is the round trip.
	want, fastest := ReceiveBatch, time.Duration(math.MaxInt64)
	for {
		select {
		case <-inst.stop:
			return
		default:
		}
		// Long poll: an idle worker parks on the queue's wait list and
		// wakes when a task arrives or a lease expires, instead of
		// burning a receive request every few milliseconds.
		start := time.Now()
		msgs, err := inst.env.Queue.ReceiveMessageBatch(
			inst.names.taskQueue, inst.cfg.VisibilityTimeout,
			want, longPollWait)
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
		fastest = min(fastest, time.Since(start))
		a, busy, ran := inst.processBatch(workerID, msgs, leases)
		if len(a.done)+len(a.dead) > 0 {
			acks <- a
		}
		if ran > 0 {
			want = ReceiveBatch
			if busy < fastest*time.Duration(ran) {
				want = queue.MaxBatch
			}
		}
	}
}

// batchAck is one batch's acknowledgement: its completed tasks, the
// receipts of its poison messages (parked on the dead-letter queue when
// one is configured) and the task IDs those name (a body that does not
// parse names none). The acknowledger writes the completed tasks' outputs
// as one object under key, reports them with the dead, and deletes all.
type batchAck struct {
	key     string
	done    []doneTask
	dead    []string
	deadIDs []string
}

// doneTask is a task that ran and awaits its acknowledgement: its output,
// and its service time so far (its execution and its share of its run's
// read), to which its share of the output object's write is added.
type doneTask struct {
	receipt, id string
	output      []byte
	service     time.Duration
}

// delivery is a received task message's decoded body, receipt and
// receive count.
type delivery struct {
	taskMessage
	receipt  string
	receives int
}

// processBatch runs every task of one receive batch and returns the
// batch's acknowledgement, which the worker's acknowledger makes while
// the worker receives and runs the next batch — 3 queue requests and one
// blob PUT per batch on the happy path, and the monitor queue hears of a
// task at most one batch's execution after it finished. The tasks run in
// (object, offset) order, and each run of them whose files follow on from
// each other in one staged object is read with one ranged GET. The
// batch's leases are renewed from now until its acknowledgement. It also
// returns how many of the batch's tasks ran and their summed service
// time.
func (inst *Instance) processBatch(workerID int, msgs []queue.Message, leases *leaseSet) (a batchAck, busy time.Duration, ran int) {
	leases.add(msgs)
	live := make([]delivery, 0, len(msgs))
	for _, m := range msgs {
		// Poison: a body that names no task (empty or malformed), and a
		// task over the receive cap that has burned through its retry
		// budget (executor failures, repeated crashes). Park it on the
		// dead-letter queue (when configured), then report it dead and
		// delete it with the batch, so it cannot wedge the queue. A failed
		// park redelivers it.
		tm, ok := parseTaskMessage(m.Body)
		if ok && (inst.cfg.MaxReceives == 0 || m.Receives <= inst.cfg.MaxReceives) {
			live = append(live, delivery{tm, m.ReceiptHandle, m.Receives})
			continue
		}
		if inst.cfg.DeadLetterQueue != "" {
			if _, err := inst.env.Queue.SendMessage(inst.cfg.DeadLetterQueue, m.Body); err != nil {
				leases.remove(m.ReceiptHandle)
				continue
			}
		}
		a.dead = append(a.dead, m.ReceiptHandle)
		if ok {
			a.deadIDs = append(a.deadIDs, tm.ID)
		}
	}
	slices.SortFunc(live, func(x, y delivery) int {
		return cmp.Or(bytes.Compare(x.Object, y.Object), cmp.Compare(x.Off, y.Off))
	})
	for i := 0; i < len(live); {
		j, end := i+1, live[i].Off+live[i].Len
		for ; j < len(live) && bytes.Equal(live[j].Object, live[i].Object) && live[j].Off <= end; j++ {
			end = max(end, live[j].Off+live[j].Len)
		}
		busy += inst.processRun(workerID, live[i:j], end, &a, leases)
		ran += j - i
		i = j
	}
	return a, busy, ran
}

// processRun is the worker pipeline of Figure 1, download → execute, for
// one run of a batch's tasks: one ranged read of the bytes from the
// run's first offset to end, then each task on its own range. A task
// that succeeds joins a's completed tasks, to be uploaded and
// acknowledged by the acknowledger; one that does not is left to
// redeliver. It returns the run's summed service time, each task's being
// its execution plus an equal share of the read.
func (inst *Instance) processRun(workerID int, run []delivery, end int64, a *batchAck, leases *leaseSet) (busy time.Duration) {
	start := time.Now()
	first := run[0].Off
	data, err := inst.downloadWithRetry(string(run[0].Object), first, end-first)
	read := time.Since(start)
	inst.stats.BusyNanos.Add(int64(read))
	share := read / time.Duration(len(run))
	for _, d := range run {
		taskStart := time.Now()
		// A range past what the read returned names bytes its object does
		// not have: the message lies about its input.
		lo := d.Off - first
		var output []byte
		ok := err == nil && lo+d.Len <= int64(len(data))
		if ok {
			task := Task{ID: d.ID, InputBucket: inst.names.inputBucket, OutputBucket: inst.names.outputBucket}
			output, ok = inst.processTask(workerID, task, data[lo:lo+d.Len:lo+d.Len])
		} else {
			// Leave the message undeleted; it will reappear and be retried.
			inst.stats.ExecErrors.Add(1)
		}
		took := time.Since(taskStart)
		inst.stats.BusyNanos.Add(int64(took))
		took += share
		busy += took
		if !ok {
			// The task was not acknowledged (failure, crash injection, or
			// preemption): stop renewing its lease so the visibility
			// timeout re-exposes it on schedule, not after the rest of
			// this batch finishes.
			leases.remove(d.receipt)
			continue
		}
		if a.key == "" {
			// Unique per delivery: no other delivery of this task has this
			// receive count.
			a.key = d.ID + "." + strconv.Itoa(d.receives)
		}
		a.done = append(a.done, doneTask{receipt: d.receipt, id: d.ID, output: output, service: took})
	}
	return busy
}

// acknowledger is a worker's one helper goroutine: it makes every queue
// call a received batch needs once its tasks have run, the report and
// the delete (acknowledge), and every VisibilityTimeout /
// heartbeatsPerLease renews each lease still in the worker's set, so
// long tasks, the tasks queued behind them and a batch awaiting its
// acknowledgement keep their leases. A failed renewal (the lease was lost)
// drops its receipt; a killed instance renews nothing, so preempted work
// reappears promptly. As one goroutine makes both calls, no renewal can
// follow its own delete, which the queue would refuse as stale.
//
// So a renewal can wait behind one acknowledgement, and an
// acknowledgement behind one renewal pass: a few round trips, against a
// heartbeat of a third of a lease. A delete that hangs for over two
// thirds of a lease (a wire call times out after 30 s; the default lease
// is 1 min) lets the next batch's leases lapse, and that batch is
// redelivered, within the at-least-once contract. It returns once the
// worker closes acks.
func (inst *Instance) acknowledger(acks <-chan batchAck, leases *leaseSet) {
	defer inst.wg.Done()
	var tick <-chan time.Time // nil, never ready, when no ticker can keep the heartbeat or once killed
	if heartbeat := inst.cfg.VisibilityTimeout / heartbeatsPerLease; heartbeat > 0 {
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		tick = ticker.C
	}
	var live []string
	for {
		select {
		case a, ok := <-acks:
			if !ok {
				return
			}
			inst.acknowledge(a, leases)
		case <-tick:
			if inst.killed.Load() {
				tick = nil
				continue
			}
			live = leases.snapshot(live[:0])
			for _, receipt := range live {
				if err := inst.env.Queue.ChangeVisibility(
					inst.names.taskQueue, receipt, inst.cfg.VisibilityTimeout); err != nil {
					leases.remove(receipt)
				}
			}
		}
	}
}

// acknowledge writes a batch's outputs as one object, reports its
// settled tasks with one monitor message and then deletes them, poison
// messages included, with a single batch delete. Write before reporting,
// so a task reported done has its output stored; report BEFORE deleting,
// and delete only what was reported: a crash or a failed send between
// the two then redelivers the task — re-executed (idempotent) or
// dead-lettered again, and re-reported (the settlement fold counts the
// repeat) — instead of silently losing the settlement of a deleted task,
// which no retry would ever repair. A failed write leaves the completed
// tasks to redeliver in the same way.
func (inst *Instance) acknowledge(a batchAck, leases *leaseSet) {
	if len(a.done) > 0 && !inst.writeOutputs(a) {
		for _, t := range a.done {
			leases.remove(t.receipt)
		}
		a.done = nil
	}
	receipts := make([]string, 0, len(a.done)+len(a.dead))
	for _, t := range a.done {
		receipts = append(receipts, t.receipt)
	}
	stored := len(receipts)
	receipts = append(receipts, a.dead...)
	var err error
	if len(a.done)+len(a.deadIDs) > 0 {
		_, err = inst.env.Queue.SendMessageBatch(inst.names.monitorQueue, [][]byte{inst.monitorBody(a)})
	}
	// Reported or not, the batch's leases are done with: its tasks are
	// deleted next, or left to expire and redeliver.
	leases.remove(receipts...)
	if err != nil {
		inst.stats.ReportErrors.Add(1)
		return
	}
	if len(receipts) == 0 {
		return
	}
	// A failed delete only redelivers the tasks, to be re-run and re-reported.
	results, _ := inst.env.Queue.DeleteMessageBatch(inst.names.taskQueue, receipts)
	for i, r := range results {
		switch {
		case r != nil:
			// Our lease expired and the task was re-issued; the result is
			// already uploaded and tasks are idempotent, so this is
			// harmless.
			inst.stats.StaleDeletes.Add(1)
		case i >= stored:
			inst.stats.DeadLettered.Add(1)
		}
	}
}

// monitorBody encodes a batch's one monitor message (MonitorReport), its
// done tasks then its dead ones, into a buffer sized for them up front.
func (inst *Instance) monitorBody(a batchAck) []byte {
	size := strLen(len(inst.cfg.InstanceType))
	for _, t := range a.done {
		size += strLen(len(t.id)) + 1 + uvarintLen(uint64(t.service))
	}
	for _, id := range a.deadIDs {
		size += strLen(len(id)) + 2
	}
	e := codec.Enc{B: make([]byte, 0, size)}
	e.Str(inst.cfg.InstanceType)
	for _, t := range a.done {
		e.Str(t.id)
		e.Byte(0)
		e.U64(uint64(t.service))
	}
	for _, id := range a.deadIDs {
		e.Str(id)
		e.Byte(1)
		e.U64(0)
	}
	return e.B
}

// writeOutputs puts a batch's outputs as one output object, its header
// (outputHeader) then the outputs, under a.key. It reports whether the
// write succeeded, and adds each task's equal share of its time to the
// task's service time.
func (inst *Instance) writeOutputs(a batchAck) bool {
	start := time.Now()
	parts := make([][]byte, 0, len(a.done)+1)
	parts = append(parts, outputHeader(a.done))
	for _, t := range a.done {
		parts = append(parts, t.output)
	}
	err := inst.env.Blob.Put(inst.names.outputBucket, a.key, parts...)
	took := time.Since(start)
	inst.stats.BusyNanos.Add(int64(took))
	if err != nil {
		inst.stats.ExecErrors.Add(int64(len(a.done)))
		return false
	}
	inst.stats.TasksExecuted.Add(int64(len(a.done)))
	for i := range a.done {
		a.done[i].service += took / time.Duration(len(a.done))
	}
	return true
}

// leaseSet holds the receipts whose leases a worker's acknowledger
// renews. A batch's receipts join when it is received and leave when it
// is acknowledged, or earlier: when a task settles without an
// acknowledgement (failure, crash, preemption) so its lease expires on
// schedule, when a poison message cannot be parked, or when a renewal
// fails. The worker and the acknowledger both change it, hence the mutex.
type leaseSet struct {
	mu       sync.Mutex
	receipts map[string]struct{}
}

func (s *leaseSet) add(msgs []queue.Message) {
	s.mu.Lock()
	for _, m := range msgs {
		s.receipts[m.ReceiptHandle] = struct{}{}
	}
	s.mu.Unlock()
}

func (s *leaseSet) remove(receipts ...string) {
	s.mu.Lock()
	for _, receipt := range receipts {
		delete(s.receipts, receipt)
	}
	s.mu.Unlock()
}

// snapshot appends the set's receipts to dst.
func (s *leaseSet) snapshot(dst []string) []string {
	s.mu.Lock()
	for receipt := range s.receipts {
		dst = append(dst, receipt)
	}
	s.mu.Unlock()
	return dst
}

// processTask executes one task on its input. It returns the output and
// whether the task succeeded and should be uploaded, reported done and
// acknowledged (batch-deleted) by the caller.
func (inst *Instance) processTask(workerID int, task Task, input []byte) ([]byte, bool) {
	output, err := inst.exec.Execute(task, input)
	if err != nil {
		inst.stats.ExecErrors.Add(1)
		return nil, false // visibility timeout will re-expose the task
	}
	if inst.killed.Load() {
		// The instance was preempted mid-task: abandon without
		// acknowledging so the visibility timeout re-exposes the work.
		inst.stats.TasksAbandoned.Add(1)
		return nil, false
	}
	if inst.cfg.CrashBeforeDelete != nil && inst.cfg.CrashBeforeDelete(workerID, task.ID) {
		// Simulated worker death after doing the work but before the
		// acknowledgement: the canonical at-least-once failure.
		inst.stats.TasksAbandoned.Add(1)
		return nil, false
	}
	return output, true
}

// downloadWithRetry reads n bytes at off of a staged input object,
// tolerating eventual-consistency NotFound responses by retrying, the
// standard client pattern on S3-era storage.
func (inst *Instance) downloadWithRetry(object string, off, n int64) ([]byte, error) {
	var lastErr error
	for i := 0; i < downloadRetries; i++ {
		data, err := inst.env.Blob.Get(inst.names.inputBucket, object, off, n)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !errors.Is(err, blob.ErrNoSuchKey) {
			return nil, err
		}
		inst.stats.DownloadRetrys.Add(1)
		time.Sleep(retryBackoff)
	}
	return nil, fmt.Errorf("classiccloud: download %s/%s: %w", inst.names.inputBucket, object, lastErr)
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
