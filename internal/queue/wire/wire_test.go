package wire

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/telemetry"
)

// startServer serves svc over the wire protocol on a fresh loopback
// listener and returns its address.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dialTest(t *testing.T, addr string, opt Options) *Client {
	t.Helper()
	c := Dial(addr, opt)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientServerAPISurface exercises every queue.API operation over
// a real TCP connection and checks the results match an in-process call
// for call: once against a Service, and once against a shard router with
// placement-grouped names, so a name with a '/' and the router's wrapped
// receipts ("s0~job-1/tasks-1#r1") cross the wire through every op.
func TestClientServerAPISurface(t *testing.T) {
	router := shard.NewRouter(shard.Config{})
	t.Cleanup(router.Close)
	if err := router.AddShard("s0", queue.NewService(queue.Config{})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		svc           queue.API
		tasks, other  string
		receiptPrefix string
	}{
		{"service", queue.NewService(queue.Config{}), "tasks", "other", ""},
		{"router", router, "job-1/tasks", "job-1/other", "s0~job-1/tasks-"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, tasks, other := tc.svc, tc.tasks, tc.other
			addr := startServer(t, &Server{Service: svc})
			c := dialTest(t, addr, Options{})

			if err := c.CreateQueue(tasks); err != nil {
				t.Fatalf("CreateQueue: %v", err)
			}
			if err := c.CreateQueue(tasks); !errors.Is(err, queue.ErrQueueExists) {
				t.Fatalf("duplicate CreateQueue: got %v, want ErrQueueExists", err)
			}
			if err := c.CreateQueue(""); !errors.Is(err, queue.ErrEmptyQueueName) {
				t.Fatalf("empty CreateQueue: got %v, want ErrEmptyQueueName", err)
			}
			if err := c.CreateQueue(other); err != nil {
				t.Fatalf("CreateQueue other: %v", err)
			}
			if names := c.ListQueues(); len(names) != 2 || names[0] != other || names[1] != tasks {
				t.Fatalf("ListQueues: %v", names)
			}

			id, err := c.SendMessage(tasks, []byte("one"))
			if err != nil || id == "" {
				t.Fatalf("SendMessage: id=%q err=%v", id, err)
			}
			ids, err := c.SendMessageBatch(tasks, [][]byte{[]byte("two"), []byte("three")})
			if err != nil || len(ids) != 2 {
				t.Fatalf("SendMessageBatch: ids=%v err=%v", ids, err)
			}
			if _, err := c.SendMessageBatch(tasks, nil); !errors.Is(err, queue.ErrBatchSize) {
				t.Fatalf("empty batch: got %v, want ErrBatchSize", err)
			}
			if visible, inflight, err := c.ApproximateCount(tasks); err != nil || visible != 3 || inflight != 0 {
				t.Fatalf("ApproximateCount: %d/%d err=%v", visible, inflight, err)
			}

			seen := map[string]string{} // body -> receipt
			for i := 0; i < 3; i++ {
				m, ok, err := c.ReceiveMessage(tasks, time.Minute)
				if err != nil || !ok {
					t.Fatalf("ReceiveMessage %d: ok=%v err=%v", i, ok, err)
				}
				if m.Receives != 1 || !strings.HasPrefix(m.ReceiptHandle, tc.receiptPrefix) || !strings.Contains(m.ReceiptHandle, "#") {
					t.Fatalf("ReceiveMessage %d: %+v", i, m)
				}
				seen[string(m.Body)] = m.ReceiptHandle
			}
			if len(seen) != 3 {
				t.Fatalf("got bodies %v, want 3 distinct", seen)
			}
			if _, _, err := c.ReceiveMessage("missing", 0); !errors.Is(err, queue.ErrNoSuchQueue) {
				t.Fatalf("receive on missing queue: got %v, want ErrNoSuchQueue", err)
			}

			if err := c.ChangeVisibility(tasks, seen["one"], time.Hour); err != nil {
				t.Fatalf("ChangeVisibility: %v", err)
			}
			if err := c.ChangeVisibility(tasks, "bogus", time.Hour); !errors.Is(err, queue.ErrStaleReceipt) {
				t.Fatalf("bogus ChangeVisibility: got %v, want ErrStaleReceipt", err)
			}
			if err := c.DeleteMessage(tasks, seen["one"]); err != nil {
				t.Fatalf("DeleteMessage: %v", err)
			}
			verdicts, err := c.DeleteMessageBatch(tasks, []string{seen["two"], "bogus", seen["three"]})
			if err != nil {
				t.Fatalf("DeleteMessageBatch: %v", err)
			}
			if verdicts[0] != nil || verdicts[2] != nil || !errors.Is(verdicts[1], queue.ErrStaleReceipt) {
				t.Fatalf("DeleteMessageBatch verdicts: %v", verdicts)
			}

			if _, err := c.SendMessage(other, []byte("x")); err != nil {
				t.Fatalf("send other: %v", err)
			}
			if err := c.Purge(other); err != nil {
				t.Fatalf("Purge: %v", err)
			}
			if visible, inflight, _ := c.ApproximateCount(other); visible+inflight != 0 {
				t.Fatalf("purged queue still holds %d/%d", visible, inflight)
			}

			// Billing flows through untouched: the wire face bills nothing of
			// its own, so remote and local counts agree exactly.
			if got, want := c.APIRequests(), svc.APIRequests(); got != want {
				t.Fatalf("APIRequests over wire %d != local %d", got, want)
			}
			if got, want := c.APIRequestsFor(tasks), svc.APIRequestsFor(tasks); got != want || got == 0 {
				t.Fatalf("APIRequestsFor over wire %d != local %d", got, want)
			}

			if err := c.DeleteQueue(other); err != nil {
				t.Fatalf("DeleteQueue: %v", err)
			}
			if err := c.DeleteQueue(other); !errors.Is(err, queue.ErrNoSuchQueue) {
				t.Fatalf("double DeleteQueue: got %v, want ErrNoSuchQueue", err)
			}
		})
	}
}

// TestLargeBodyRoundTrip pushes a body well past the pooled-buffer
// retention cap through send and receive.
func TestLargeBodyRoundTrip(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	addr := startServer(t, &Server{Service: svc})
	c := dialTest(t, addr, Options{})
	if err := c.CreateQueue("big"); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0xa5, 0x5a, 0x00}, (2<<20)/3)
	if _, err := c.SendMessage("big", body); err != nil {
		t.Fatalf("send 2MiB body: %v", err)
	}
	m, ok, err := c.ReceiveMessage("big", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(m.Body, body) {
		t.Fatalf("2MiB body corrupted in transit (len %d vs %d)", len(m.Body), len(body))
	}
}

// TestPipeliningNoHeadOfLineBlocking proves a long poll parked on one
// queue does not stall other requests sharing the same single
// connection — the property the correlation-id demux exists for — and
// that a poll waiting longer than the request bound is not cut off: its
// wait extends its deadline.
func TestPipeliningNoHeadOfLineBlocking(t *testing.T) {
	const wait = 3 * time.Second
	setRequestTimeout(t, time.Second)
	svc := queue.NewService(queue.Config{})
	addr := startServer(t, &Server{Service: svc})
	c := dialTest(t, addr, Options{Conns: 1})
	for _, q := range []string{"empty", "busy"} {
		if err := c.CreateQueue(q); err != nil {
			t.Fatal(err)
		}
	}

	pollDone := make(chan error, 1)
	go func() {
		// Parks server-side for the full wait: nothing is ever sent.
		start := time.Now()
		_, ok, err := c.ReceiveMessageWait("empty", time.Minute, wait)
		switch {
		case ok:
			err = errors.New("long poll received a message from an empty queue")
		case err == nil && time.Since(start) < wait:
			err = fmt.Errorf("long poll returned after %v, before its %v wait", time.Since(start), wait)
		}
		pollDone <- err
	}()

	// While the poll is parked, the same connection must keep serving.
	start := time.Now()
	deadline := time.After(2 * time.Second)
	for i := 0; i < 20; i++ {
		select {
		case <-deadline:
			t.Fatalf("pipelined traffic stalled behind a long poll (%d cycles in %v)", i, time.Since(start))
		default:
		}
		if _, err := c.SendMessage("busy", []byte("x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		m, ok, err := c.ReceiveMessage("busy", time.Minute)
		if err != nil || !ok {
			t.Fatalf("receive %d: ok=%v err=%v", i, ok, err)
		}
		if err := c.DeleteMessage("busy", m.ReceiptHandle); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := <-pollDone; err != nil {
		t.Fatalf("long poll: %v", err)
	}
}

// TestConcurrentPipelinedLoad hammers one client from many goroutines;
// with the race detector on (CI matrix) this also vets the demux and
// buffer-pool discipline.
func TestConcurrentPipelinedLoad(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	reg := telemetry.NewRegistry()
	addr := startServer(t, &Server{Service: svc, Metrics: reg})
	c := dialTest(t, addr, Options{Conns: 2, Metrics: reg})

	const workers, cycles = 16, 25
	for w := 0; w < workers; w++ {
		if err := c.CreateQueue(fmt.Sprintf("q%d", w%4)); err != nil && !errors.Is(err, queue.ErrQueueExists) {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qname := fmt.Sprintf("q%d", w%4)
			for i := 0; i < cycles; i++ {
				body := []byte(fmt.Sprintf("w%d-c%d", w, i))
				if _, err := c.SendMessage(qname, body); err != nil {
					errCh <- fmt.Errorf("send: %w", err)
					return
				}
				m, ok, err := c.ReceiveMessageWait(qname, time.Minute, 5*time.Second)
				if err != nil || !ok {
					errCh <- fmt.Errorf("receive: ok=%v err=%w", ok, err)
					return
				}
				if err := c.DeleteMessage(qname, m.ReceiptHandle); err != nil && !errors.Is(err, queue.ErrStaleReceipt) {
					errCh <- fmt.Errorf("delete: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	total := 0
	for w := 0; w < 4; w++ {
		visible, inflight, err := c.ApproximateCount(fmt.Sprintf("q%d", w))
		if err != nil {
			t.Fatal(err)
		}
		total += visible + inflight
	}
	if total != 0 {
		t.Fatalf("%d messages left after all workers drained their own traffic", total)
	}
}

// transferFixture serves a Service holding queue "q" with admin token
// "new" provisioned, and returns the service and a privileged client.
func transferFixture(t *testing.T) (*queue.Service, *Client) {
	t.Helper()
	svc := queue.NewService(queue.Config{})
	if err := svc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, &Server{Service: svc, AdminTokens: []string{"new"}})
	return svc, dialTest(t, addr, Options{AdminToken: "new"})
}

// TestTransferAuth checks the privileged transfer opcode end to end:
// token rotation, wrong tokens, missing tokens, and delivery-count
// preservation.
func TestTransferAuth(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	addr := startServer(t, &Server{Service: svc, AdminTokens: []string{"new", "old"}})
	if err := svc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	for _, token := range []string{"new", "old"} {
		c := dialTest(t, addr, Options{AdminToken: token})
		ids, err := c.TransferInBatch("q", []queue.TransferItem{{Body: []byte("moved-" + token), Receives: 4}})
		if err != nil || len(ids) != 1 {
			t.Fatalf("transfer with token %q: ids=%v err=%v", token, ids, err)
		}
	}
	m, ok, err := svc.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive transferred: %v", err)
	}
	if m.Receives != 5 {
		t.Fatalf("transferred message Receives=%d, want 5 (4 prior + this delivery)", m.Receives)
	}

	one := []queue.TransferItem{{Body: []byte("x")}}
	wrong := dialTest(t, addr, Options{AdminToken: "stolen"})
	if _, err := wrong.TransferInBatch("q", one); !errors.Is(err, queue.ErrNotPrivileged) {
		t.Fatalf("wrong token: got %v, want ErrNotPrivileged", err)
	}
	none := dialTest(t, addr, Options{})
	if _, err := none.TransferInBatch("q", one); !errors.Is(err, queue.ErrNotPrivileged) {
		t.Fatalf("no token: got %v, want ErrNotPrivileged (local fast-fail)", err)
	}
	// A server with no provisioned tokens rejects every token.
	bare := dialTest(t, startServer(t, &Server{Service: svc}), Options{AdminToken: "new"})
	if _, err := bare.TransferInBatch("q", one); !errors.Is(err, queue.ErrNotPrivileged) {
		t.Fatalf("unprovisioned server: got %v, want ErrNotPrivileged", err)
	}
	// The public path is untouched by the privilege check beside it.
	if _, err := none.SendMessage("q", []byte("public")); err != nil {
		t.Fatalf("public send alongside a gated transfer opcode: %v", err)
	}
}

// TestTransferBadRequests: a negative receive count, an empty batch and
// an over-long batch come back as their sentinels and enqueue nothing.
func TestTransferBadRequests(t *testing.T) {
	svc, admin := transferFixture(t)
	for _, tc := range []struct {
		name  string
		items []queue.TransferItem
		want  error
	}{
		{"negative receives", []queue.TransferItem{{Body: []byte("x"), Receives: -3}}, queue.ErrBadTransfer},
		{"empty batch", nil, queue.ErrBatchSize},
		{"over MaxBatch", make([]queue.TransferItem, queue.MaxBatch+1), queue.ErrBatchSize},
	} {
		if _, err := admin.TransferInBatch("q", tc.items); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if visible, inflight, _ := svc.ApproximateCount("q"); visible != 0 || inflight != 0 {
		t.Errorf("rejected transfers enqueued messages: %d/%d", visible, inflight)
	}
}

// TestTransferUnknownQueue: ErrNoSuchQueue holds for a transfer into a
// missing queue on both sides of the wire.
func TestTransferUnknownQueue(t *testing.T) {
	svc, admin := transferFixture(t)
	if _, err := svc.TransferIn("ghost", []byte("x"), 1); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Fatalf("server side: %v, want ErrNoSuchQueue", err)
	}
	if _, err := admin.TransferIn("ghost", []byte("x"), 1); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Errorf("client side: %v, want ErrNoSuchQueue across the wire", err)
	}
}

// TestTransferBilling: a transfer batch is one billed request to its
// destination, however many items it carries, and the remote billing
// read agrees with the service.
func TestTransferBilling(t *testing.T) {
	svc, admin := transferFixture(t)
	base := svc.APIRequestsFor("q")
	items := make([]queue.TransferItem, 5)
	for i := range items {
		items[i] = queue.TransferItem{Body: []byte("m"), Receives: i}
	}
	if _, err := admin.TransferInBatch("q", items); err != nil {
		t.Fatal(err)
	}
	if got := svc.APIRequestsFor("q") - base; got != 1 {
		t.Errorf("5-item transfer billed %d requests to the destination, want exactly 1", got)
	}
	if got := admin.APIRequestsFor("q"); got != base+1 {
		t.Errorf("billing read over wire reports %d, want %d", got, base+1)
	}
}

// TestReconnectWithBackoff kills the server under a live client and
// brings a new one up on the same address: calls must fail fast with
// ErrUnavailable while it is down (backoff, no hanging dials) and
// succeed again once it is back.
func TestReconnectWithBackoff(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &Server{Service: svc}
	go srv.Serve(ln)

	c := dialTest(t, addr, Options{Conns: 1})
	if err := c.CreateQueue("q"); err != nil {
		t.Fatalf("create before outage: %v", err)
	}

	srv.Close()
	// The in-flight generation dies; subsequent calls must surface
	// ErrUnavailable quickly rather than hanging.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.SendMessage("q", []byte("x"))
		if errors.Is(err, ErrUnavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outage never surfaced as ErrUnavailable (last err: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := &Server{Service: svc}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := c.SendMessage("q", []byte("back")); err == nil {
			return // reconnected
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected after the server came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// traceSvc records every trace ID scoped onto it.
type traceSvc struct {
	*queue.Service
	mu     sync.Mutex
	traces []string
}

func (t *traceSvc) WithTrace(id string) queue.API {
	t.mu.Lock()
	t.traces = append(t.traces, id)
	t.mu.Unlock()
	return t.Service
}

// lockedBuffer collects log lines written by server goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestTracePropagation checks the frame's trace field reaches the
// server-side TraceScoper, and that a request slower than SlowRequest
// (here: every request) is logged with it.
func TestTracePropagation(t *testing.T) {
	var logged lockedBuffer
	old := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(old) })

	ts := &traceSvc{Service: queue.NewService(queue.Config{})}
	addr := startServer(t, &Server{Service: ts, SlowRequest: time.Nanosecond})
	c := dialTest(t, addr, Options{})

	scoped := c.WithTrace("trace-42")
	if err := scoped.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := scoped.SendMessage("q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Untraced calls must not scope.
	if _, _, err := c.ApproximateCount("q"); err != nil {
		t.Fatal(err)
	}

	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.traces) != 2 {
		t.Fatalf("server scoped %d times, want 2: %v", len(ts.traces), ts.traces)
	}
	for _, tr := range ts.traces {
		if tr != "trace-42" {
			t.Fatalf("trace %q arrived, want trace-42", tr)
		}
	}
	if out := logged.String(); !strings.Contains(out, `wire: slow request trace=trace-42 op=send queue="q"`) {
		t.Fatalf("slow send not logged with its trace ID:\n%s", out)
	}
}

// TestWireMetrics checks the telemetry surface: per-op histograms
// observe traffic and the connection gauges track open conns.
func TestWireMetrics(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	reg := telemetry.NewRegistry()
	addr := startServer(t, &Server{Service: svc, Metrics: reg})
	c := Dial(addr, Options{Conns: 1, Metrics: reg})

	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.SendMessage("q", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Histogram(telemetry.Label("wire_op_ns", "op", "send")).Count(); n != 5 {
		t.Fatalf("wire_op_ns{op=send} observed %d, want 5", n)
	}
	if g := reg.Gauge(telemetry.Label("wire_client_conns", "peer", addr)).Value(); g != 1 {
		t.Fatalf("wire_client_conns=%d with one live conn", g)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge(telemetry.Label("wire_client_conns", "peer", addr)).Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("wire_client_conns never returned to 0 after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setRequestTimeout shortens the per-request bound for one test.
func setRequestTimeout(t *testing.T, d time.Duration) {
	old := requestTimeout
	requestTimeout = d
	t.Cleanup(func() { requestTimeout = old })
}

// silentNode listens on loopback, accepts every connection and never
// answers; it returns the address.
func silentNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, nc) // kept open, never read, never answered
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		for _, nc := range held {
			nc.Close()
		}
	})
	return ln.Addr().String()
}

// A node that accepts connections and never answers costs a bounded
// wait, never a hang: discovery gives up within dialTimeout and says
// why.
func TestDiscoverAddrGivesUpOnSilentNode(t *testing.T) {
	addr := silentNode(t)
	start := time.Now()
	if got, err := DiscoverAddr("http://" + addr); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("DiscoverAddr = %q, %v; want an unreachable error", got, err)
	}
	if elapsed := time.Since(start); elapsed < dialTimeout/2 || elapsed > 2*dialTimeout {
		t.Errorf("probe took %v, want about %v", elapsed, dialTimeout)
	}
}

// TestClientBoundsEveryRequest: a wire call to a silent node fails with
// ErrUnavailable once requestTimeout plus the call's own long-poll wait
// has passed, while a long poll on a live node that waits past
// requestTimeout is not cut off.
func TestClientBoundsEveryRequest(t *testing.T) {
	const bound, wait = 200 * time.Millisecond, 50 * time.Millisecond
	setRequestTimeout(t, bound)
	c := dialTest(t, silentNode(t), Options{Conns: 1})
	for _, tc := range []struct {
		name string
		want time.Duration
		call func() error
	}{
		{"count", bound, func() error { _, _, err := c.ApproximateCount("q"); return err }},
		{"long poll", bound + wait, func() error { _, err := c.ReceiveMessageBatch("q", 0, 1, wait); return err }},
	} {
		start := time.Now()
		err := tc.call()
		if took := time.Since(start); took < tc.want || took > tc.want+2*time.Second {
			t.Errorf("%s on a silent node took %v, want about %v", tc.name, took, tc.want)
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("%s on a silent node: %v, want ErrUnavailable", tc.name, err)
		}
	}

	svc := queue.NewService(queue.Config{})
	if err := svc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	live := dialTest(t, startServer(t, &Server{Service: svc}), Options{Conns: 1})
	start := time.Now()
	msgs, err := live.ReceiveMessageBatch("q", 0, 1, bound+wait)
	if err != nil || len(msgs) != 0 {
		t.Errorf("long poll of an empty queue: %d messages, err %v", len(msgs), err)
	}
	if took := time.Since(start); took < bound+wait {
		t.Errorf("long poll returned after %v, before its %v wait", took, bound+wait)
	}
}

// DiscoverAddr resolves an advertisement without a usable host against
// the node's URL, and says why a node offers no wire endpoint.
func TestDiscoverAddr(t *testing.T) {
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	for _, tc := range []struct {
		name    string
		handler http.Handler
		want    string // the address, or a fragment of the error
	}{
		{"port only", Advertise(":9111"), "127.0.0.1:9111"},
		{"unspecified host", Advertise("[::]:9111"), "127.0.0.1:9111"},
		{"host given", Advertise("10.1.2.3:9111"), "10.1.2.3:9111"},
		{"no /wire", http.NotFoundHandler(), "404 Not Found"},
		{"no address", Advertise(""), "advertises no wire address"},
	} {
		url := serve(tc.handler)
		got, err := DiscoverAddr(url)
		if err != nil {
			got = err.Error()
			if !strings.Contains(got, url) {
				t.Errorf("%s: error %q does not name %s", tc.name, got, url)
			}
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("%s: DiscoverAddr = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// skewedSvc is a malformed peer: every batch answer it gives has skew
// more items than the request (one too few at −1).
type skewedSvc struct {
	*queue.Service
	skew int
}

func skewed[T any](v []T, skew int) []T {
	if skew < 0 {
		return v[:max(0, len(v)+skew)]
	}
	var extra T
	return append(v, extra)
}

func (s *skewedSvc) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	ids, err := s.Service.SendMessageBatch(q, bodies)
	return skewed(ids, s.skew), err
}

func (s *skewedSvc) TransferInBatch(q string, items []queue.TransferItem) ([]string, error) {
	ids, err := s.Service.TransferInBatch(q, items)
	return skewed(ids, s.skew), err
}

func (s *skewedSvc) DeleteMessageBatch(q string, receipts []string) ([]error, error) {
	results, err := s.Service.DeleteMessageBatch(q, receipts)
	return skewed(results, s.skew), err
}

// TestBatchAnswerCountMismatch: a batch answer is positional, so one
// with an item too few or too many fails the call as a corrupt payload
// instead of reaching a caller that indexes it by its request (TransferIn
// used to panic on an empty answer).
func TestBatchAnswerCountMismatch(t *testing.T) {
	for _, skew := range []int{-1, 1} {
		svc := &skewedSvc{Service: queue.NewService(queue.Config{}), skew: skew}
		c := dialTest(t, startServer(t, &Server{Service: svc, AdminTokens: []string{"tok"}}), Options{AdminToken: "tok"})
		if err := c.CreateQueue("q"); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"SendMessageBatch", func() error {
				_, err := c.SendMessageBatch("q", [][]byte{[]byte("a"), []byte("b")})
				return err
			}},
			{"TransferInBatch", func() error {
				_, err := c.TransferInBatch("q", []queue.TransferItem{{Body: []byte("c"), Receives: 1}, {Body: []byte("d")}})
				return err
			}},
			{"TransferIn", func() error { _, err := c.TransferIn("q", []byte("e"), 2); return err }},
			{"DeleteMessageBatch", func() error { _, err := c.DeleteMessageBatch("q", []string{"r1", "r2"}); return err }},
		} {
			if err := tc.call(); !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "corrupt response payload") {
				t.Errorf("skew %+d: %s: %v, want ErrUnavailable for a corrupt response payload", skew, tc.name, err)
			}
		}
	}
}

// BenchmarkWireRoundTrip is one caller's SendMessage over loopback: a
// call with nothing to share a write with, so its time is the round trip
// itself, which the writers' one yield before a flush must not lengthen.
func BenchmarkWireRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &Server{Service: queue.NewService(queue.Config{})}
	go srv.Serve(ln)
	defer srv.Close()
	c := Dial(ln.Addr().String(), Options{})
	defer c.Close()
	if err := c.CreateQueue("q"); err != nil {
		b.Fatal(err)
	}
	body := []byte("task payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SendMessage("q", body); err != nil {
			b.Fatal(err)
		}
	}
}
