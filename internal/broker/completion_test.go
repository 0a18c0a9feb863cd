package broker

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// pacedExec is simulated work: every task takes `each`, and the executor
// remembers when the last Execute returned.
type pacedExec struct {
	each time.Duration
	last atomic.Int64 // UnixNano of the latest Execute return
}

func (*pacedExec) Name() string { return "paced" }

func (e *pacedExec) Execute(classiccloud.Task, []byte) ([]byte, error) {
	if e.each > 0 {
		time.Sleep(e.each)
	}
	for now := time.Now().UnixNano(); ; {
		if last := e.last.Load(); last >= now || e.last.CompareAndSwap(last, now) {
			return []byte("ok"), nil
		}
	}
}

// pacedBroker is a broker whose one app is a pacedExec job on a fixed
// fleet of one instance with two workers, over a counting queue.
func pacedBroker(t *testing.T, each, tick time.Duration) (*Broker, *pacedExec, *faultyQueue) {
	t.Helper()
	env := testEnv()
	fq := &faultyQueue{API: env.Queue}
	env.Queue = fq
	exec := &pacedExec{each: each}
	b := New(Config{
		Env:                  env,
		TickInterval:         tick,
		JournalSnapshotEvery: -1, // the tests count journal events
		Autoscale:            AutoscalePolicy{MinInstances: 1, MaxInstances: 1},
		Registry: map[string]ExecutorFactory{
			"paced": func(map[string][]byte) (classiccloud.Executor, error) { return exec, nil },
		},
	})
	t.Cleanup(b.Close)
	return b, exec, fq
}

// inertRegistry offers the one app "inert", whose every execution fails:
// nothing ever settles, so a job's loop keeps waiting for a first report.
func inertRegistry() map[string]ExecutorFactory {
	return map[string]ExecutorFactory{
		"inert": func(map[string][]byte) (classiccloud.Executor, error) {
			return inertExec{failPreload: new(atomic.Bool)}, nil
		},
	}
}

func numberedFiles(n int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("f%04d", i)] = []byte("x")
	}
	return files
}

func countEvents(t *testing.T, j *Job, typ EventType) int {
	t.Helper()
	events, err := j.Journal()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range events {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// A job is seen complete when its last report lands, not at the next
// tick: with a 2 s tick, Wait returns within 100 ms of the last Execute.
// The short case never reaches a tick at all, so it is the wait for the
// first report that has to find it.
func TestCompletionDoesNotWaitForTheTick(t *testing.T) {
	const tick = 2 * time.Second
	for _, tc := range []struct {
		name  string
		tasks int
		each  time.Duration
	}{
		{"a few hundred 1.5 ms tasks", 300, 1500 * time.Microsecond},
		{"shorter than anything the loop could have measured", 96, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, exec, _ := pacedBroker(t, tc.each, tick)
			j, err := b.Submit(JobRequest{App: "paced", Files: numberedFiles(tc.tasks)})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			j.mu.Lock()
			finished := j.core.FinishedAt
			j.mu.Unlock()
			lag := finished.Sub(time.Unix(0, exec.last.Load()))
			if lag >= 100*time.Millisecond || lag >= tick/4 {
				t.Errorf("completed %v after the last execution returned; want under 100 ms, with a %v tick", lag, tick)
			}
			if st := j.Status(); st.Done != tc.tasks || st.Duplicates != 0 {
				t.Errorf("status = %+v, want %d done once each", st, tc.tasks)
			}
		})
	}
}

// Noticing completion early must not cost the monitor queue its full
// batches: 400 tasks of 2 ms at the production tick may use two requests
// (receive, delete) per full batch, one more per tick, and eight for the
// partial batches at the job's start and end — and as few checkpoints.
// A loop that always waits on the queue wakes for every worker batch of
// four reports, about a hundred times, and fails this.
func TestBatchEconomy(t *testing.T) {
	const tasks = 400
	b, _, fq := pacedBroker(t, 2*time.Millisecond, 0)
	tick := b.cfg.TickInterval
	start := time.Now()
	j, err := b.Submit(JobRequest{App: "paced", Files: numberedFiles(tasks)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	ticks := int(time.Since(start) / tick)
	fullBatches := (tasks + queue.MaxBatch - 1) / queue.MaxBatch
	requests := fq.monitorReceives.Load() + fq.monitorDeletes.Load()
	if limit := int64(2*fullBatches + ticks + 8); requests > limit {
		t.Errorf("%d receives + %d deletes on the monitor queue over %d ticks, want at most %d in all",
			fq.monitorReceives.Load(), fq.monitorDeletes.Load(), ticks, limit)
	}
	checkpoints := countEvents(t, j, EvCheckpoint)
	if limit := fullBatches + 6; checkpoints > limit {
		t.Errorf("%d checkpoints journaled, want at most %d", checkpoints, limit)
	}
	t.Logf("%d receives, %d deletes, %d checkpoints over %d ticks",
		fq.monitorReceives.Load(), fq.monitorDeletes.Load(), checkpoints, ticks)
}

// Close on a job whose control loop is parked in the monitor queue's long
// poll waits out at most that poll — one tick — and aborts the job once.
func TestCloseWithParkedDrain(t *testing.T) {
	const tick = 400 * time.Millisecond
	env := testEnv()
	fq := &faultyQueue{API: env.Queue, parked: make(chan struct{}, 1)}
	env.Queue = fq
	b := New(Config{
		Env:               env,
		TickInterval:      tick,
		VisibilityTimeout: time.Hour,
		Registry:          inertRegistry(),
	})
	j, err := b.Submit(JobRequest{App: "inert", Files: numberedFiles(8)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fq.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the control loop never waited on the monitor queue")
	}
	start := time.Now()
	b.Close()
	if took := time.Since(start); took > tick+tick/2 {
		t.Errorf("Close took %v with the drain parked, want at most one %v tick", took, tick)
	}
	if err := j.Wait(time.Second); err == nil {
		t.Error("Wait on the closed job reported success")
	}
	if n := countEvents(t, j, EvAborted); n != 1 {
		t.Errorf("%d aborted events journaled, want 1", n)
	}
	if st := j.Status(); st.State != StateAborted || st.Fleet != 0 {
		t.Errorf("status after Close = %+v", st)
	}
}

// A receive that fails while the loop is waiting for a first report is
// retried at the tick, not at once: an unreachable queue costs two failed
// receives per tick (the wait, then the tick's own drain), not a spin.
func TestFailedParkedReceiveWaitsForTheTick(t *testing.T) {
	const tick = 50 * time.Millisecond
	env := testEnv()
	fq := &faultyQueue{API: env.Queue}
	fq.failMonitorReceive.Store(true)
	env.Queue = fq
	reg := telemetry.NewRegistry()
	b := New(Config{
		Env:               env,
		TickInterval:      tick,
		VisibilityTimeout: time.Hour,
		Metrics:           reg,
		Registry:          inertRegistry(),
	})
	defer b.Close()
	start := time.Now()
	if _, err := b.Submit(JobRequest{App: "inert", Files: numberedFiles(8)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * tick) // the window measured, not a synchronisation
	failures := reg.Counter(errorMetric("monitor_receive")).Value()
	if ticks := int64(time.Since(start)/tick) + 1; failures == 0 || failures > 2*ticks {
		t.Errorf("%d failed receives in %d ticks, want at most two per tick", failures, ticks)
	}
}
