// Telemetry integration tests: the observability layer exercised the
// way a deployment uses it — a trace ID following real traffic across
// the client → router → shard wire chain, and a live registry being
// rendered while an instrumented broker job runs full tilt. Both run
// in CI's race-detector pass over this package: the histogram/rate/gauge
// internals are lock-free on the write path, and these tests are where
// that claim is checked against real concurrency, not a synthetic loop.
package repro

import (
	"fmt"
	"net"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
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

// TestMetricSeriesNames pins the names and types of every /metrics
// series one fully instrumented stack renders: a blob store, queue
// services local0, local1 and one unnamed, a router over the named two
// behind a wire server and client, and a broker running one small job
// over that client. Each op is driven once, then the Prometheus text is
// stripped of its values and of the client's ephemeral port. Dashboards,
// paperbench and bench/e2e find series by these names, so a change to
// how the layers instrument themselves must leave
// testdata/metric_series.txt as it is.
func TestMetricSeriesNames(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := blob.NewStore(blob.Config{Metrics: reg})
	local0 := queue.NewService(queue.Config{Seed: 1, Metrics: reg, MetricsName: "local0"})
	local1 := queue.NewService(queue.Config{Seed: 2, Metrics: reg, MetricsName: "local1"})
	plain := queue.NewService(queue.Config{Seed: 3, Metrics: reg})
	router := shard.NewRouter(shard.Config{Metrics: reg})
	defer router.Close()
	if err := router.AddShard("local0", local0); err != nil {
		t.Fatal(err)
	}
	if err := router.AddShard("local1", local1); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Service: router, AdminTokens: []string{"admin"}, Metrics: reg}
	go srv.Serve(ln)
	defer srv.Close()
	client := wire.Dial(ln.Addr().String(), wire.Options{AdminToken: "admin", Metrics: reg})
	defer client.Close()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(store.CreateBucket("probe"))
	must(store.Put("probe", "k", []byte("v")))
	_, err = store.PutIf("probe", "k2", []byte("v"), 0)
	must(err)
	_, err = store.Append("probe", "log", []byte("v"))
	must(err)
	_, err = store.Get("probe", "k", 0, -1)
	must(err)
	_, err = store.List("probe", "")
	must(err)
	must(store.Delete("probe", "k"))

	for _, api := range []queue.API{plain, client} {
		const q = "probe/q"
		must(api.CreateQueue(q))
		_, err := api.SendMessage(q, []byte("a"))
		must(err)
		_, err = api.SendMessageBatch(q, [][]byte{[]byte("b"), []byte("c")})
		must(err)
		_, err = api.(queue.Transferrer).TransferIn(q, []byte("d"), 1)
		must(err)
		msgs, err := api.ReceiveMessageBatch(q, time.Minute, 4, 0)
		must(err)
		if len(msgs) != 4 {
			t.Fatalf("received %d messages, want 4", len(msgs))
		}
		must(api.ChangeVisibility(q, msgs[0].ReceiptHandle, time.Minute))
		must(api.DeleteMessage(q, msgs[0].ReceiptHandle))
		_, err = api.DeleteMessageBatch(q, []string{msgs[1].ReceiptHandle})
		must(err)
		_, _, err = api.ApproximateCount(q)
		must(err)
		must(api.Purge(q))
		must(api.DeleteQueue(q))
	}

	files, err := workload.Cap3FileSet(23, 3, 20, 600, 0)
	must(err)
	bk := broker.New(broker.Config{
		Env:          classiccloud.Env{Blob: store, Queue: client},
		Metrics:      reg,
		TickInterval: 5 * time.Millisecond,
		Autoscale:    broker.AutoscalePolicy{MinInstances: 1, MaxInstances: 1},
	})
	defer bk.Close()
	j, err := bk.Submit(broker.JobRequest{App: "cap3", Files: files})
	must(err)
	must(j.Wait(60 * time.Second))

	peer := regexp.MustCompile(`peer="[^"]*"`)
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(reg.RenderProm())), "\n") {
		if !strings.HasPrefix(line, "# ") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		got = append(got, peer.ReplaceAllString(line, `peer="ADDR"`))
	}
	raw, err := os.ReadFile("testdata/metric_series.txt")
	must(err)
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if diff := cmpLines(want, got); diff != "" {
		t.Errorf("/metrics series changed:\n%s", diff)
	}
}

// cmpLines lists the lines only want has (-) and only got has (+),
// or "" when the two hold the same lines in the same order.
func cmpLines(want, got []string) string {
	if strings.Join(want, "\n") == strings.Join(got, "\n") {
		return ""
	}
	in := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	inWant, inGot := in(want), in(got)
	var b strings.Builder
	for _, l := range want {
		if !inGot[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	if b.Len() == 0 {
		b.WriteString("same lines, different order\n")
	}
	return b.String()
}
