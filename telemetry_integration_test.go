// Telemetry integration tests: the observability layer exercised the
// way a deployment uses it — a trace ID following real traffic across
// the client → router → shard wire chain, and a live registry being
// rendered while an instrumented broker job runs full tilt. Both run
// in CI's race-detector pass over this package: the histogram/rate/gauge
// internals are lock-free on the write path, and these tests are where
// that claim is checked against real concurrency, not a synthetic loop.
package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// traceRecorder is a shard that records every trace ID scoped onto it:
// the wire server scopes each frame's trace ID onto the service it
// serves.
type traceRecorder struct {
	*queue.Service
	mu   sync.Mutex
	seen map[string]bool
}

func (tr *traceRecorder) WithTrace(tid string) queue.API {
	tr.mu.Lock()
	tr.seen[tid] = true
	tr.mu.Unlock()
	return tr.Service
}

func (tr *traceRecorder) sawTrace(tid string) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.seen[tid]
}

// TestTraceIDPropagatesClientRouterShard drives the full two-hop wire
// chain — queue client → router behind a wire server → owning shard
// behind another — and verifies the client's trace ID arrives at the
// shard. Then it runs a real broker job over the same chain and verifies
// the job's own trace ID (minted at submission, reported in its status)
// shows up at the shard: the property that makes one job's traffic
// greppable end to end.
func TestTraceIDPropagatesClientRouterShard(t *testing.T) {
	rec := &traceRecorder{Service: queue.NewService(queue.Config{Seed: 1}), seen: make(map[string]bool)}
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	if err := router.AddShard("s0", serveWire(t, rec)); err != nil {
		t.Fatal(err)
	}
	front := serveWire(t, router)

	// Hop check: a scoped client's ID crosses both hops.
	const clientTrace = "trace-client-e2e"
	qc := front.WithTrace(clientTrace)
	if err := qc.CreateQueue("probe/q"); err != nil {
		t.Fatal(err)
	}
	if _, err := qc.SendMessage("probe/q", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if !rec.sawTrace(clientTrace) {
		t.Fatalf("shard never saw client trace %q", clientTrace)
	}

	// Broker check: a job's minted trace ID reaches the shard through the
	// broker's control loop and its worker fleet.
	files, err := workload.Cap3FileSet(17, 4, 20, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	bk := broker.New(broker.Config{
		Env: classiccloud.Env{
			Blob:  blob.NewStore(blob.Config{}),
			Queue: front,
		},
		TickInterval: 5 * time.Millisecond,
		Autoscale:    broker.AutoscalePolicy{MinInstances: 1, MaxInstances: 2},
	})
	defer bk.Close()
	j, err := bk.Submit(broker.JobRequest{App: "cap3", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	jobTrace := j.Status().Trace
	if jobTrace == "" {
		t.Fatal("job has no trace ID")
	}
	if !rec.sawTrace(jobTrace) {
		t.Fatalf("shard never saw job trace %q", jobTrace)
	}
}

// TestTelemetryConcurrentWithLiveBrokerJob renders a shared registry —
// snapshots, JSON, and Prometheus text, all of which walk every
// histogram bucket and run the gauge collectors against live broker
// state — continuously while a fully instrumented broker job runs.
// Under -race this is the proof that readers never need to stop the
// writers.
func TestTelemetryConcurrentWithLiveBrokerJob(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{Metrics: reg}),
		Queue: queue.NewService(queue.Config{Seed: 2, Metrics: reg}),
	}
	bk := broker.New(broker.Config{
		Env:          env,
		Metrics:      reg,
		TickInterval: 2 * time.Millisecond,
		Autoscale:    broker.AutoscalePolicy{MinInstances: 2, MaxInstances: 4, BacklogPerInstance: 4},
	})
	defer bk.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = reg.RenderProm()
				_ = reg.RenderJSON()
				reg.Snapshot()
			}
		}()
	}

	files, err := workload.Cap3FileSet(19, 8, 20, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := bk.Submit(broker.JobRequest{App: "cap3", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()

	if got := reg.Counter("broker_tasks_done").Value(); got != int64(len(files)) {
		t.Errorf("broker_tasks_done = %d, want %d", got, len(files))
	}
	if n := reg.Histogram("broker_task_service_ns").Count(); n != int64(len(files)) {
		t.Errorf("broker_task_service_ns observations = %d, want %d", n, len(files))
	}
	recv := reg.Histogram(telemetry.Label("queue_op_ns", "op", "receive"))
	if recv.Count() == 0 {
		t.Error("queue receive histogram recorded nothing during a live job")
	}
}
