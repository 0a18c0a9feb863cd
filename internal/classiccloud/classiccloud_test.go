package classiccloud

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
)

func testEnv() Env {
	return Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 1}),
	}
}

// upperExec is a trivial idempotent executable.
var upperExec = FuncExecutor{
	AppName: "upper",
	Fn: func(_ Task, input []byte) ([]byte, error) {
		return bytes.ToUpper(input), nil
	},
}

// slowUpperExec takes long enough per task that work interleaves across
// workers and instances.
var slowUpperExec = FuncExecutor{
	AppName: "slow-upper",
	Fn: func(_ Task, input []byte) ([]byte, error) {
		time.Sleep(3 * time.Millisecond)
		return bytes.ToUpper(input), nil
	},
}

func makeFiles(n int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("file%03d.txt", i)] = []byte(fmt.Sprintf("content of file %d", i))
	}
	return files
}

func TestEndToEndSingleInstance(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "e2e"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(20)
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 20 {
		t.Fatalf("%d tasks", len(tasks))
	}
	inst, err := StartInstance(env, cfg, upperExec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 20 {
		t.Errorf("completed = %d", rep.Completed)
	}
	outputs, err := client.CollectOutputs(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range files {
		if got := outputs[name]; !bytes.Equal(got, bytes.ToUpper(in)) {
			t.Errorf("%s: output %q", name, got)
		}
	}
}

func TestMultipleInstancesShareQueue(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "multi"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(40))
	if err != nil {
		t.Fatal(err)
	}
	var instances []*Instance
	for i := 0; i < 4; i++ {
		inst, err := StartInstance(env, cfg, slowUpperExec, 2)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, inst)
	}
	defer func() {
		for _, in := range instances {
			in.Stop()
		}
	}()
	if _, err := client.WaitForCompletion(tasks, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Dynamic scheduling through the global queue: with 4 identical
	// instances, no single instance should have done all the work.
	total := int64(0)
	busiest := int64(0)
	for _, in := range instances {
		n := in.Stats().TasksExecuted.Load()
		total += n
		if n > busiest {
			busiest = n
		}
	}
	if total < 40 {
		t.Errorf("total executed = %d, want ≥ 40", total)
	}
	if busiest == total {
		t.Error("one instance executed everything; queue sharing broken")
	}
}

func TestVisibilityTimeoutRecoversCrashedWorker(t *testing.T) {
	env := testEnv()
	var crashes atomic.Int64
	cfg := Config{
		JobName:           "crashy",
		VisibilityTimeout: 150 * time.Millisecond,
		// First three tasks observed by worker 0 are abandoned after
		// execution, before deletion.
		CrashBeforeDelete: func(workerID int, task Task) bool {
			return workerID == 0 && crashes.Add(1) <= 3
		},
	}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(12))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, slowUpperExec, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	if err != nil {
		t.Fatalf("job did not recover from crashes: %v", err)
	}
	if rep.Completed != 12 {
		t.Errorf("completed = %d", rep.Completed)
	}
	if inst.Stats().TasksAbandoned.Load() == 0 {
		t.Error("crash injection never fired")
	}
}

// steppingClock advances by step each time it is read.
type steppingClock struct {
	step time.Duration
	n    atomic.Int64
}

func (c *steppingClock) Now() time.Time {
	return time.Unix(0, 0).Add(time.Duration(c.n.Add(1)) * c.step)
}

// Inside the consistency window a staged object reads as missing, and a
// worker retries its read until the object shows. The store's clock
// advances a third of the window at each read of it (and at the one
// PUT that stages the job), so the first read of the staged object sees
// it a third of a window old, and every run retries: at least once, and
// within downloadRetries.
func TestEventualConsistencyRetries(t *testing.T) {
	const window = time.Second
	env := Env{
		Blob:  blob.NewStore(blob.Config{ConsistencyWindow: window, Clock: &steppingClock{step: window / 3}}),
		Queue: queue.NewService(queue.Config{Seed: 2}),
	}
	cfg := Config{JobName: "ec"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(6))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if inst.Stats().DownloadRetrys.Load() == 0 {
		t.Error("no read of the staged object was retried")
	}
	if n := env.Blob.Usage().NotFoundReads; n == 0 {
		t.Errorf("%d reads inside the consistency window, want at least one", n)
	}
}

func TestFailingExecutorRetriesViaTimeout(t *testing.T) {
	env := testEnv()
	var failures atomic.Int64
	flaky := FuncExecutor{
		AppName: "flaky",
		Fn: func(task Task, input []byte) ([]byte, error) {
			// Fail the first two attempts overall.
			if failures.Add(1) <= 2 {
				return nil, errors.New("transient failure")
			}
			return bytes.ToUpper(input), nil
		},
	}
	cfg := Config{JobName: "flaky", VisibilityTimeout: 100 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(4))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, flaky, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if inst.Stats().ExecErrors.Load() < 2 {
		t.Errorf("ExecErrors = %d, want ≥ 2", inst.Stats().ExecErrors.Load())
	}
}

type preloadExec struct {
	FuncExecutor
	preloaded atomic.Bool
}

func (p *preloadExec) Preload(env Env) error {
	// Fetch the shared reference data, like the BLAST DB download.
	if _, err := env.Blob.GetConsistent("shared", "refdata"); err != nil {
		return err
	}
	p.preloaded.Store(true)
	return nil
}

func TestPreloadRunsBeforeWorkers(t *testing.T) {
	env := testEnv()
	env.Blob.CreateBucket("shared")
	env.Blob.Put("shared", "refdata", []byte("reference"))
	pe := &preloadExec{FuncExecutor: upperExec}
	cfg := Config{JobName: "preload"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, pe, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if !pe.preloaded.Load() {
		t.Error("preload did not run")
	}
}

func TestPreloadFailureAbortsInstance(t *testing.T) {
	env := testEnv()
	pe := &preloadExec{FuncExecutor: upperExec} // bucket "shared" missing
	cfg := Config{JobName: "preloadfail"}
	if _, err := StartInstance(env, cfg, pe, 1); err == nil {
		t.Fatal("missing preload data should abort instance start")
	}
}

func TestSetupIsIdempotent(t *testing.T) {
	env := testEnv()
	client := NewClient(env, Config{JobName: "idem"})
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := client.Setup(); err != nil {
		t.Errorf("second Setup: %v", err)
	}
}

func TestWaitTimesOutWithoutWorkers(t *testing.T) {
	env := testEnv()
	client := NewClient(env, Config{JobName: "nobody"})
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, _ := client.SubmitFiles(makeFiles(2))
	_, err := client.WaitForCompletion(tasks, 100*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Errorf("err = %v", err)
	}
}

// A task message's body names its task and its input's range, so poison
// comes in two kinds. A body that names no task, empty or malformed, is
// dead-lettered on its first receive, with no report, as there is no
// task to report. A body naming a task whose input was never uploaded is
// a task like any other whose input is missing: it is executed on each
// of its MaxReceives deliveries, then dead-lettered and reported dead.
func TestPoisonMessageDoesNotWedgeWorkers(t *testing.T) {
	const maxReceives = 3
	for _, tc := range []struct {
		name, body string
		task       string // the task the body names; none when empty
		// visibility is an hour for a body that names no task: a message
		// not dead-lettered on its first receive is never received again
		// here.
		visibility     time.Duration
		wantExecErrors int64
	}{
		{name: "empty body", body: "", visibility: time.Hour},
		{name: "malformed body", body: "ghost.txt", visibility: time.Hour},
		{name: "body names no input", task: "ghost.txt",
			body:       string(taskMessage{ID: "ghost.txt", Object: "ghost.txt", Len: 5}.appendTo(nil)),
			visibility: 100 * time.Millisecond, wantExecErrors: maxReceives},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv()
			cfg := Config{JobName: "poison", VisibilityTimeout: tc.visibility,
				MaxReceives: maxReceives, DeadLetterQueue: "poison/dead"}
			client := NewClient(env, cfg)
			if err := client.Setup(); err != nil {
				t.Fatal(err)
			}
			if _, err := env.Queue.SendMessage(cfg.TaskQueue(), []byte(tc.body)); err != nil {
				t.Fatal(err)
			}
			tasks, err := client.SubmitFiles(makeFiles(5))
			if err != nil {
				t.Fatal(err)
			}
			wantDead := 0
			if tc.task != "" {
				tasks = append(tasks, cfg.TasksFromIDs([]string{tc.task})...)
				wantDead = 1
			}
			inst, err := StartInstance(env, cfg, upperExec, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Stop()
			rep, err := client.WaitForCompletion(tasks, 10*time.Second)
			if err != nil {
				t.Fatalf("poison message wedged the job: %v", err)
			}
			if rep.Completed != 5 || rep.DeadLettered != wantDead {
				t.Errorf("report = %+v, want 5 completed and %d dead", rep, wantDead)
			}
			deadline := time.Now().Add(5 * time.Second)
			for inst.Stats().DeadLettered.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("poison message never dead-lettered")
				}
				time.Sleep(time.Millisecond)
			}
			if got := inst.Stats().ExecErrors.Load(); got != tc.wantExecErrors {
				t.Errorf("ExecErrors = %d, want %d executions of the poison message", got, tc.wantExecErrors)
			}
			parked, ok, err := env.Queue.ReceiveMessage(cfg.DeadLetterQueue, time.Minute)
			if err != nil || !ok || string(parked.Body) != tc.body {
				t.Errorf("dead-letter queue holds %q (ok %v, err %v), want the body %q", parked.Body, ok, err, tc.body)
			}
			// WaitForCompletion returns on the reports, but a task's
			// delete belongs to its worker's acknowledger; Stop returns
			// only after every acknowledgement.
			inst.Stop()
			if visible, inflight, err := env.Queue.ApproximateCount(cfg.TaskQueue()); err != nil || visible+inflight != 0 {
				t.Errorf("task queue still holds %d+%d messages (err %v)", visible, inflight, err)
			}
		})
	}
}

func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	// Force aggressive duplicate delivery; every task may run twice but
	// results must be correct and the job must finish.
	env := Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 5, DuplicateProb: 0.3}),
	}
	cfg := Config{JobName: "dup"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(15)
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	outputs, err := client.CollectOutputs(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range files {
		if !bytes.Equal(outputs[name], bytes.ToUpper(in)) {
			t.Errorf("%s corrupted under duplicate delivery", name)
		}
	}
}

// Monitor reports carry the reporting instance's type (the calibration
// catalog's label) and the task's service time.
func TestMonitorReportCarriesInstanceType(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "typed", InstanceType: "aws/Large"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(map[string][]byte{"a.txt": []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Read the raw report off the monitor queue (WaitForCompletion would
	// consume it).
	var msgs []queue.Message
	deadline := time.Now().Add(5 * time.Second)
	for len(msgs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no monitor report within 5s")
		}
		msgs, err = env.Queue.ReceiveMessageBatch(cfg.MonitorQueue(), time.Minute, 10, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	inst.Stop()
	reps, err := UnmarshalMonitorReports(nil, msgs[0].Body)
	if err != nil || len(reps) != 1 {
		t.Fatalf("monitor body holds %d reports (%v), want 1", len(reps), err)
	}
	rep := reps[0]
	if rep.TaskID != tasks[0].ID || rep.Status != StatusDone {
		t.Errorf("report = %+v, want %s done", rep, tasks[0].ID)
	}
	if rep.InstanceType != "aws/Large" {
		t.Errorf("InstanceType = %q, want aws/Large", rep.InstanceType)
	}
	if rep.ServiceTime <= 0 {
		t.Errorf("ServiceTime = %v, want > 0", rep.ServiceTime)
	}
}

func TestStopIsIdempotentAndConcurrent(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "stop"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.Stop()
		}()
	}
	wg.Wait()
}

func TestDeadLetterAfterReceiveCap(t *testing.T) {
	env := testEnv()
	poison := FuncExecutor{
		AppName: "poison",
		Fn: func(task Task, input []byte) ([]byte, error) {
			if task.ID == "file001.txt" {
				return nil, errors.New("permanently broken input")
			}
			return bytes.ToUpper(input), nil
		},
	}
	cfg := Config{
		JobName:           "dlq",
		VisibilityTimeout: 20 * time.Millisecond,
		MaxReceives:       3,
		DeadLetterQueue:   "dlq-dead",
	}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(5))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, poison, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Errorf("Completed = %d, want 4", rep.Completed)
	}
	if rep.DeadLettered != 1 {
		t.Errorf("DeadLettered = %d, want 1", rep.DeadLettered)
	}
	// The worker counts a dead letter after its report and its delete, so
	// WaitForCompletion can return first: read the count once Stop has
	// waited for the workers.
	inst.Stop()
	if got := inst.Stats().DeadLettered.Load(); got != 1 {
		t.Errorf("instance DeadLettered = %d, want 1", got)
	}
	// The poison message is parked, intact, on the dead-letter queue.
	visible, inflight, err := env.Queue.ApproximateCount("dlq-dead")
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight != 1 {
		t.Errorf("dead-letter queue holds %d messages, want 1", visible+inflight)
	}
	// Task queue must be fully drained: poison cannot wedge it.
	visible, inflight, err = env.Queue.ApproximateCount(cfg.TaskQueue())
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight != 0 {
		t.Errorf("task queue still holds %d messages", visible+inflight)
	}
}

func TestKillAbandonsInFlightWork(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "kill", VisibilityTimeout: 30 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(12))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := StartInstance(env, cfg, slowUpperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Let the victim pick up work, then preempt it mid-stream.
	time.Sleep(5 * time.Millisecond)
	victim.Kill()
	// A survivor fleet recovers the abandoned tasks via the visibility
	// timeout.
	survivor, err := StartInstance(env, cfg, slowUpperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Stop()
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(tasks) {
		t.Errorf("Completed = %d, want %d", rep.Completed, len(tasks))
	}
	if victim.Stats().TasksAbandoned.Load() == 0 {
		t.Error("victim abandoned no tasks; Kill was a graceful stop")
	}
}
