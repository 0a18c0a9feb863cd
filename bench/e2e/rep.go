package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/harness"
	"repro/bench/workloads"
	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

const (
	// pollEvery is how often the control client polls job status.
	pollEvery = 20 * time.Millisecond
	// jobTimeout bounds one job; hitting it is an operational failure.
	jobTimeout = 2 * time.Minute
)

// rep is what one repetition on a fresh stack measured.
type rep struct {
	traced   bool
	tasks    int
	workers  int
	bringUp  time.Duration // stack assembly
	wall     time.Duration // the timed section
	submit   time.Duration // wall inside HTTPClient.Submit, summed over jobs
	cpu      time.Duration // process user+sys over the timed section
	queueReq int64         // CostReport.QueueRequests summed over jobs
	blobReq  int64         // job store + journal store requests, submit → completed
	recover  time.Duration // restart workloads: kill → recovered
	slowdown float64       // machine speed around the repetition, as a multiple of the calibration's reference time
	failures []string      // every lost, wrong or mis-billed task; empty on a healthy run
	inexact  int           // outputs equal to the reference only in cap3's run-stable form

	layers  map[string]float64        // traced only: per-layer metrics
	timings map[string]harness.Timing // traced only: percentile detail
	spans   []harness.Span            // traced only
}

func (r *rep) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// control is the benchmark's broker client: the HTTP client a user
// would hold, with a span around every call on traced runs.
type control struct {
	c   *broker.HTTPClient
	rec *harness.Recorder
}

// spanned runs one control call, recording a span around it on traced
// runs.
func spanned[T any](c control, op, job string, call func() (T, error)) (T, error) {
	start := time.Now()
	v, err := call()
	if c.rec != nil {
		c.rec.Add("", op, job, start, 0, err)
	}
	return v, err
}

func (c control) submit(req broker.JobRequest) (broker.Status, error) {
	return spanned(c, "submit", "", func() (broker.Status, error) { return c.c.Submit(req) })
}

func (c control) status(id string) (broker.Status, error) {
	return spanned(c, "status", id, func() (broker.Status, error) { return c.c.Status(id) })
}

func (c control) cost(id string) (broker.CostReport, error) {
	return spanned(c, "cost", id, func() (broker.CostReport, error) { return c.c.Cost(id) })
}

func (c control) outputs(id string) (map[string][]byte, error) {
	return spanned(c, "outputs", id, func() (map[string][]byte, error) { return c.c.Outputs(id) })
}

func (c control) events(id string) ([]broker.ScalingEvent, error) {
	return spanned(c, "events", id, func() ([]broker.ScalingEvent, error) { return c.c.Events(id) })
}

// execHooks decorates every executor a registry builds: a gate that
// holds executions until the kill (restart workloads), a count of
// executions, and on traced runs one span per execution.
type execHooks struct {
	rec  *harness.Recorder
	gate *gate
	runs *atomic.Int64
}

// gate holds every execution that reaches it until abandon is closed,
// then fails it — how a killed worker's task ends. Broker.Halt waits for
// its workers, so the gate must let go before the halt.
type gate struct {
	abandon chan struct{}
	waiting atomic.Int64
}

var errAbandoned = errors.New("bench: worker killed at the gate")

type hookedExec struct {
	classiccloud.Executor
	h execHooks
}

func (e hookedExec) Execute(task classiccloud.Task, input []byte) ([]byte, error) {
	if g := e.h.gate; g != nil {
		g.waiting.Add(1)
		<-g.abandon
		return nil, errAbandoned
	}
	if e.h.runs != nil {
		e.h.runs.Add(1)
	}
	if e.h.rec == nil {
		return e.Executor.Execute(task, input)
	}
	start := time.Now()
	out, err := e.Executor.Execute(task, input)
	// The input bucket names the job the execution belongs to.
	e.h.rec.Add("", e.Name(), task.InputBucket, start, 1, err)
	return out, err
}

// hookedRegistry wraps the default registry's factories. An executor
// that stages shared data keeps its Preloader facet.
func hookedRegistry(h execHooks) map[string]broker.ExecutorFactory {
	out := make(map[string]broker.ExecutorFactory)
	for app, factory := range broker.DefaultRegistry() {
		out[app] = func(shared map[string][]byte) (classiccloud.Executor, error) {
			ex, err := factory(shared)
			if err != nil {
				return nil, err
			}
			he := hookedExec{Executor: ex, h: h}
			if p, ok := ex.(classiccloud.Preloader); ok {
				return struct {
					hookedExec
					classiccloud.Preloader
				}{he, p}, nil
			}
			return he, nil
		}
	}
	return out
}

// snapshot is every counter the harness reads at a window edge.
type snapshot struct {
	at        time.Time
	cpuUser   time.Duration
	cpuSys    time.Duration
	job       blob.Usage
	journal   blob.Usage
	jobBusy   map[string]time.Duration // blob_op_ns sums per op, traced only
	jobOps    map[string]int64
	jrnBusy   map[string]time.Duration
	jrnOps    map[string]int64
	sentBytes int64
	mem       runtime.MemStats // traced only
}

var blobOps = []string{"put", "put_if", "append", "get", "delete", "list"}

func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func take(st *harness.Stores, tr *harness.Trace) snapshot {
	s := snapshot{at: time.Now(), job: st.Job.Usage()}
	s.cpuUser, s.cpuSys = cpuTimes()
	if st.Journal != nil {
		s.journal = st.Journal.Usage()
	}
	if tr == nil {
		return s
	}
	s.jobBusy, s.jobOps = make(map[string]time.Duration), make(map[string]int64)
	s.jrnBusy, s.jrnOps = make(map[string]time.Duration), make(map[string]int64)
	for _, op := range blobOps {
		name := telemetry.Label("blob_op_ns", "op", op)
		h := st.JobReg.Histogram(name)
		s.jobBusy[op], s.jobOps[op] = h.Sum(), h.Count()
		if st.Journal != nil {
			jh := st.JournalReg.Histogram(name)
			s.jrnBusy[op], s.jrnOps[op] = jh.Sum(), jh.Count()
		}
	}
	for _, p := range tr.Shards {
		s.sentBytes += p.SentBytes.Load()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func busyDelta(a, b map[string]time.Duration, ops ...string) time.Duration {
	var d time.Duration
	for _, op := range ops {
		d += b[op] - a[op]
	}
	return d
}

// jobRun tracks one submitted job through a repetition.
type jobRun struct {
	spec        workloads.Job
	want        map[string][]byte
	id, trace   string
	submitStart time.Time
	submitEnd   time.Time
	doneAt      time.Time
	status      broker.Status
	cost        broker.CostReport
	events      int
}

// runRep runs the workload once on a fresh stack and measures it.
func runRep(spec workloads.Spec, in *workloads.Inputs, ref []map[string][]byte, traced, smoke bool) (*rep, error) {
	r := &rep{traced: traced, tasks: in.Tasks, workers: spec.WorkersPerInstance * len(in.Jobs)}
	var tr *harness.Trace
	hooks := execHooks{}
	if traced {
		tr = harness.NewTrace()
		hooks.rec = tr.App
	}
	cfg := harness.StackConfig{
		Shape: spec.Shape, Visibility: spec.Visibility,
		WorkersPerInstance: spec.WorkersPerInstance, Trace: tr,
	}
	if smoke && spec.Restart {
		// The smoke run cannot afford to wait seconds for dead leases.
		cfg.Visibility = 500 * time.Millisecond
	}
	var g *gate
	if spec.Restart {
		g = &gate{abandon: make(chan struct{})}
		hooks.gate = g
	}
	if traced || spec.Restart {
		cfg.Registry = hookedRegistry(hooks)
	}

	bring := time.Now()
	stack, err := harness.Build(cfg)
	if err != nil {
		return nil, err
	}
	r.bringUp = time.Since(bring)
	defer func() { stack.Close() }()
	ctl := control{c: stack.Client}
	if tr != nil {
		ctl.rec = tr.Broker
	}

	jobs := make([]*jobRun, len(in.Jobs))
	for i, j := range in.Jobs {
		jobs[i] = &jobRun{spec: j, want: ref[i]}
	}

	// Collect the previous repetition's garbage (its stores, its spans)
	// outside the timed section, so every repetition starts from the
	// same heap.
	runtime.GC()

	// Submit every job at once, as concurrent tenants would.
	s0 := take(stack.Stores, tr)
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *jobRun) {
			defer wg.Done()
			j.submitStart = time.Now()
			st, err := ctl.submit(broker.JobRequest{
				App: j.spec.App, Tenant: j.spec.Tenant, Files: j.spec.Files, Shared: j.spec.Shared,
			})
			j.submitEnd = time.Now()
			j.id, j.trace, errs[i] = st.ID, st.Trace, err
		}(i, j)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	s1 := take(stack.Stores, tr)
	for _, j := range jobs {
		r.submit += j.submitEnd.Sub(j.submitStart)
	}

	// winStart opens the timed section: the first Submit call, or on a
	// restart workload the kill.
	winStart := s0
	var canary *canaryProbe
	var gen2runs atomic.Int64
	if spec.Restart {
		if err := waitFor(func() bool { return g.waiting.Load() >= int64(r.workers) }); err != nil {
			return nil, fmt.Errorf("workers never reached the gate: %w", err)
		}
		if canary, err = plantCanary(stack.Router); err != nil {
			return nil, err
		}
		winStart = take(stack.Stores, tr)
		close(g.abandon)
		stack.Kill()

		// Fresh services fold the same journals; a fresh broker re-adopts
		// the job. The recovered generation runs ungated.
		hooks.gate, hooks.runs = nil, &gen2runs
		cfg.Registry, cfg.Stores = hookedRegistry(hooks), stack.Stores
		recovered, err := harness.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("rebuild after kill: %w", err)
		}
		stack = recovered
		recStart := time.Now()
		adopted, err := stack.Broker.Recover()
		if err != nil {
			return nil, fmt.Errorf("broker recover: %w", err)
		}
		r.recover = time.Since(winStart.at)
		if tr != nil {
			tr.Broker.Add("", "recover", "", recStart, adopted, nil)
		}
		if adopted != len(jobs) {
			r.fail("recovery re-adopted %d running jobs, want %d", adopted, len(jobs))
		}
		ctl.c = stack.Client
	}

	// Poll until every job reports completed.
	peakGoroutines := 0
	deadline := time.Now().Add(jobTimeout)
	for pending := len(jobs); pending > 0; {
		for _, j := range jobs {
			if !j.doneAt.IsZero() {
				continue
			}
			st, err := ctl.status(j.id)
			if err != nil {
				return nil, fmt.Errorf("status %s: %w", j.id, err)
			}
			switch st.State {
			case broker.StateCompleted:
				j.doneAt, j.status = time.Now(), st
				pending--
			case broker.StateAborted:
				return nil, fmt.Errorf("job %s aborted with %d/%d done", j.id, st.Done, st.Total)
			}
		}
		if n := runtime.NumGoroutine(); n > peakGoroutines {
			peakGoroutines = n
		}
		if pending > 0 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("timeout after %v with %d job(s) unfinished", jobTimeout, pending)
			}
			time.Sleep(pollEvery)
		}
	}
	s2 := take(stack.Stores, tr)
	for _, j := range jobs {
		if j.doneAt.After(s2.at) {
			s2.at = j.doneAt
		}
	}
	r.wall = s2.at.Sub(winStart.at)
	r.cpu = (s2.cpuUser + s2.cpuSys) - (winStart.cpuUser + winStart.cpuSys)
	r.blobReq = (s2.job.Requests() - s0.job.Requests()) + (s2.journal.Requests() - s0.journal.Requests())

	// Settle: bills, outputs, and the invariants that make a task count
	// as not failed.
	for _, j := range jobs {
		if err := settle(r, ctl, stack, j); err != nil {
			return nil, err
		}
		r.queueReq += j.cost.QueueRequests
	}
	if spec.Restart {
		if n := gen2runs.Load(); n != int64(in.Tasks) {
			r.fail("recovered generation executed %d tasks, want exactly %d", n, in.Tasks)
		}
		if err := canary.check(stack.Router, r); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		layerMetrics(r, spec, stack, tr, jobs, s0, s1, winStart, s2, peakGoroutines)
	}
	return r, nil
}

// waitFor polls cond for up to ten seconds.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// settle collects one finished job's status, bill and outputs and
// records every task that must count as failed: dead-lettered, missing
// or byte-wrong outputs, duplicate settlements, and a bill that
// disagrees with the router's own request counts.
func settle(r *rep, ctl control, stack *harness.Stack, j *jobRun) error {
	st := j.status
	if st.Done != len(j.spec.Files) {
		r.fail("%s: %d of %d tasks done", j.id, st.Done, len(j.spec.Files))
	}
	for i := 0; i < st.Dead; i++ {
		r.fail("%s: task dead-lettered", j.id)
	}
	for i := 0; i < st.Duplicates; i++ {
		r.fail("%s: task settled more than once", j.id)
	}

	// Billing identity: what the job is charged must equal what the
	// router counted for the job's three queues. Workers may still be
	// parked in their last long poll when the job reports completed, so
	// read until both sides hold still.
	cc := classiccloud.Config{JobName: j.id}
	routerCount := func() int64 {
		return stack.Router.APIRequestsFor(cc.TaskQueue()) +
			stack.Router.APIRequestsFor(cc.MonitorQueue()) +
			stack.Router.APIRequestsFor(j.id+"/dead")
	}
	billed := false
	for try := 0; try < 100 && !billed; try++ {
		before := routerCount()
		cost, err := ctl.cost(j.id)
		if err != nil {
			return fmt.Errorf("cost %s: %w", j.id, err)
		}
		j.cost = cost
		if billed = before == cost.QueueRequests && routerCount() == before; !billed {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !billed {
		r.fail("%s: billed %d queue requests, router counted %d", j.id, j.cost.QueueRequests, routerCount())
	}

	outs, err := ctl.outputs(j.id)
	if err != nil {
		return fmt.Errorf("outputs %s: %w", j.id, err)
	}
	for name, want := range j.want {
		got, ok := outs[name]
		if !ok {
			r.fail("%s: output of %s missing", j.id, name)
			continue
		}
		same, exact := workloads.Matches(j.spec.App, got, want)
		if !same {
			r.fail("%s: output of %s differs from the direct-kernel reference", j.id, name)
		} else if !exact {
			r.inexact++
		}
	}
	if evs, err := ctl.events(j.id); err == nil {
		j.events = len(evs)
	}
	return nil
}

// canaryProbe checks from outside that the queue journal preserves
// delivery counts across a kill: a message outside any job is delivered
// twice before the kill and must come back as its third delivery after
// recovery.
type canaryProbe struct{ queueName string }

func plantCanary(q queue.API) (*canaryProbe, error) {
	c := &canaryProbe{queueName: "canary/deliveries"}
	if err := q.CreateQueue(c.queueName); err != nil {
		return nil, fmt.Errorf("canary: %w", err)
	}
	if _, err := q.SendMessage(c.queueName, []byte("canary")); err != nil {
		return nil, fmt.Errorf("canary: %w", err)
	}
	for want := 1; want <= 2; want++ {
		m, ok, err := q.ReceiveMessage(c.queueName, time.Minute)
		if err != nil || !ok || m.Receives != want {
			return nil, fmt.Errorf("canary: delivery %d: ok=%v receives=%d err=%v", want, ok, m.Receives, err)
		}
		if err := q.ChangeVisibility(c.queueName, m.ReceiptHandle, 0); err != nil {
			return nil, fmt.Errorf("canary: %w", err)
		}
	}
	return c, nil
}

func (c *canaryProbe) check(q queue.API, r *rep) error {
	// A restarted router has no routes until a client names the queue
	// again (the broker's Reattach does the same for the job's queues);
	// the recovered shard answers that the queue exists.
	if err := q.CreateQueue(c.queueName); err != nil && !errors.Is(err, queue.ErrQueueExists) {
		return fmt.Errorf("canary after recovery: %w", err)
	}
	m, ok, err := q.ReceiveMessage(c.queueName, time.Minute)
	if err != nil {
		return fmt.Errorf("canary after recovery: %w", err)
	}
	if !ok || m.Receives != 3 || string(m.Body) != "canary" {
		r.fail("canary after recovery: ok=%v receives=%d (want delivery 3): delivery count lost", ok, m.Receives)
	}
	return nil
}

// jobOfBucket maps an app span's input bucket back to its job id.
func jobOfBucket(bucketName string) string { return strings.TrimSuffix(bucketName, "-input") }
