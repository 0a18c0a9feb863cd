package broker

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// heldTaskSend is a queue.API double that holds the at-th batch send to a
// task queue (1-based) until release is closed, closing held when it
// starts to wait: a submission caught part-way through staging.
type heldTaskSend struct {
	queue.API
	at      int64
	sends   atomic.Int64
	held    chan struct{}
	release chan struct{}
}

func newHeldTaskSend(api queue.API, at int64) *heldTaskSend {
	return &heldTaskSend{API: api, at: at, held: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldTaskSend) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	if strings.HasSuffix(q, "/tasks") && h.sends.Add(1) == h.at {
		close(h.held)
		<-h.release
	}
	return h.API.SendMessageBatch(q, bodies)
}

// A job runs from its first staged batch: with its last batch of task
// messages held back until some task has executed, Submit still returns,
// and the job completes.
func TestJobStartsOnItsFirstStagedBatch(t *testing.T) {
	env := testEnv()
	held := newHeldTaskSend(env.Queue, 3) // 25 files are three batches
	env.Queue = held
	executed := make(chan struct{}, 1)
	b := New(Config{
		Env:          env,
		TickInterval: 5 * time.Millisecond,
		Autoscale:    AutoscalePolicy{MinInstances: 1, MaxInstances: 1},
		Registry: map[string]ExecutorFactory{
			"echo": func(map[string][]byte) (classiccloud.Executor, error) {
				return classiccloud.FuncExecutor{AppName: "echo", Fn: func(_ classiccloud.Task, in []byte) ([]byte, error) {
					select {
					case executed <- struct{}{}:
					default:
					}
					return in, nil
				}}, nil
			},
		},
	})
	t.Cleanup(b.Close)
	ranFirst := make(chan bool, 1)
	go func() {
		<-held.held
		select {
		case <-executed:
			ranFirst <- true
		case <-time.After(10 * time.Second):
			ranFirst <- false
		}
		close(held.release)
	}()
	j, err := b.Submit(JobRequest{App: "echo", Files: numberedFiles(25)})
	if err != nil {
		t.Fatal(err)
	}
	if !<-ranFirst {
		t.Fatal("no task ran while the job's last batch was being staged")
	}
	if err := j.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Done != 25 {
		t.Fatalf("done = %d, want 25", st.Done)
	}
	if n := countEvents(t, j, EvStaged); n != 1 {
		t.Errorf("%d staged events journaled, want 1", n)
	}
}

// POST /jobs is staged as it arrives: with the body's sender stopped
// after the first batch's files, a task executes, and once the rest is
// written the submission is answered 201 and the job completes.
func TestSubmitStagesBeforeBodyEnds(t *testing.T) {
	executed := make(chan struct{}, 1)
	b := New(Config{
		Env:          testEnv(),
		TickInterval: 5 * time.Millisecond,
		Autoscale:    AutoscalePolicy{MinInstances: 1, MaxInstances: 1},
		Registry: map[string]ExecutorFactory{
			"echo": func(map[string][]byte) (classiccloud.Executor, error) {
				return classiccloud.FuncExecutor{AppName: "echo", Fn: func(_ classiccloud.Task, in []byte) ([]byte, error) {
					select {
					case executed <- struct{}{}:
					default:
					}
					return in, nil
				}}, nil
			},
		},
	})
	t.Cleanup(b.Close)
	files := make(map[string][]byte, 25) // each file's own bytes, so a reused buffer shows
	for name := range numberedFiles(25) {
		files[name] = []byte(strings.Repeat(name, 3))
	}
	body, _, err := jobBody(JobRequest{App: "echo", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	flat := bytes.Join(body, nil)
	// The header, then a length prefix and the data of each file: the
	// first batch ends after its last file's data, part 2·MaxBatch−1.
	firstBatch := len(bytes.Join(body[:2*queue.MaxBatch], nil))
	pr, pw := io.Pipe()
	ranFirst := make(chan bool, 1)
	go func() {
		_, _ = pw.Write(flat[:firstBatch])
		select {
		case <-executed:
			ranFirst <- true
		case <-time.After(10 * time.Second):
			ranFirst <- false
		}
		_, _ = pw.Write(flat[firstBatch:])
		pw.Close()
	}()
	rec := httptest.NewRecorder()
	(&HTTPHandler{Broker: b}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", pr))
	if !<-ranFirst {
		t.Fatal("no task ran while the body's later files were still to be sent")
	}
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d %s, want 201", rec.Code, rec.Body)
	}
	j, ok := b.Job("job-0001")
	if !ok {
		t.Fatal("the submitted job is not registered")
	}
	if err := j.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Done != 25 {
		t.Fatalf("done = %d, want 25", st.Done)
	}
	outs, err := j.CollectOutputs()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if !bytes.Equal(outs[name], data) {
			t.Errorf("%s echoed %q, want %q", name, outs[name], data)
		}
	}
}

// A Close while a submission is staging aborts the job, and Submit
// reports ErrClosed instead of a job that is half staged.
func TestCloseDuringStaging(t *testing.T) {
	env := testEnv()
	held := newHeldTaskSend(env.Queue, 1)
	env.Queue = held
	b := New(Config{
		Env:               env,
		TickInterval:      20 * time.Millisecond,
		VisibilityTimeout: time.Hour,
		Registry:          inertRegistry(),
	})
	submitted := make(chan error, 1)
	go func() {
		_, err := b.Submit(JobRequest{App: "inert", Files: numberedFiles(25)})
		submitted <- err
	}()
	<-held.held
	j, ok := b.Job("job-0001")
	if !ok {
		t.Fatal("the staging job is not registered")
	}
	b.Close()
	close(held.release)
	if err := <-submitted; !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit = %v, want ErrClosed", err)
	}
	if st := j.Status(); st.State != StateAborted || st.Fleet != 0 {
		t.Errorf("status after Close = %+v, want aborted with no fleet", st)
	}
	if n := countEvents(t, j, EvAborted); n != 1 {
		t.Errorf("%d aborted events journaled, want 1", n)
	}
	if n := countEvents(t, j, EvStaged); n != 0 {
		t.Errorf("%d staged events journaled on an aborted job", n)
	}
	if err := j.Wait(time.Second); err == nil {
		t.Error("Wait on the aborted job reported success")
	}
}

// A failed submission is withdrawn only once the job's control loop has
// exited: with the loop parked on the monitor queue while the second
// staging send fails, nothing it does after Submit has answered may use
// the queues the withdrawal removed, or recreate the journal.
func TestWithdrawalWaitsForTheLoop(t *testing.T) {
	env := testEnv()
	fq := &faultyQueue{API: env.Queue, failSendAt: 2, parked: make(chan struct{}, 1), holdMonitor: make(chan struct{})}
	held := newHeldTaskSend(fq, 2) // the failing send, held until the loop has parked
	env.Queue = held
	reg := telemetry.NewRegistry()
	b := New(Config{
		Env:               env,
		TickInterval:      500 * time.Millisecond,
		VisibilityTimeout: time.Hour,
		Metrics:           reg,
		Registry:          inertRegistry(),
	})
	go func() {
		<-held.held
		<-fq.parked
		close(held.release)
	}()
	if _, err := b.Submit(JobRequest{App: "inert", Files: numberedFiles(25)}); !errors.Is(err, errInjected) {
		t.Fatalf("Submit = %v, want the injected fault", err)
	}
	close(fq.holdMonitor)
	b.Close() // waits for every control loop, the withdrawn job's too
	if keys, err := env.Blob.List(b.cfg.JournalBucket, ""); err != nil || len(keys) != 0 {
		t.Errorf("journal bucket holds %v (err %v), want nothing", keys, err)
	}
	for _, site := range []string{"monitor_receive", "monitor_delete"} {
		if n := reg.Counter(errorMetric(site)).Value(); n != 0 {
			t.Errorf("broker_errors_total{site=%q} = %d after the withdrawal, want 0", site, n)
		}
	}
}

// A staged event is refused on a terminal record.
func TestFoldRefusesStagingATerminalJob(t *testing.T) {
	rec := jobRecord{}
	for _, ev := range []Event{{Type: EvSubmitted, Staging: true}, {Type: EvAborted}} {
		if err := rec.apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.apply(Event{Type: EvStaged}); err == nil {
		t.Error("an aborted job was staged")
	}
}
