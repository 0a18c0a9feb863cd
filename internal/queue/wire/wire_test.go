package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
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
// a real TCP connection and checks the results match an in-process
// Service call for call.
func TestClientServerAPISurface(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	addr := startServer(t, &Server{Service: svc})
	c := dialTest(t, addr, Options{})

	if err := c.CreateQueue("tasks"); err != nil {
		t.Fatalf("CreateQueue: %v", err)
	}
	if err := c.CreateQueue("tasks"); !errors.Is(err, queue.ErrQueueExists) {
		t.Fatalf("duplicate CreateQueue: got %v, want ErrQueueExists", err)
	}
	if err := c.CreateQueue(""); !errors.Is(err, queue.ErrEmptyQueueName) {
		t.Fatalf("empty CreateQueue: got %v, want ErrEmptyQueueName", err)
	}
	if err := c.CreateQueue("other"); err != nil {
		t.Fatalf("CreateQueue other: %v", err)
	}
	if names := c.ListQueues(); len(names) != 2 || names[0] != "other" || names[1] != "tasks" {
		t.Fatalf("ListQueues: %v", names)
	}

	id, err := c.SendMessage("tasks", []byte("one"))
	if err != nil || id == "" {
		t.Fatalf("SendMessage: id=%q err=%v", id, err)
	}
	ids, err := c.SendMessageBatch("tasks", [][]byte{[]byte("two"), []byte("three")})
	if err != nil || len(ids) != 2 {
		t.Fatalf("SendMessageBatch: ids=%v err=%v", ids, err)
	}
	if _, err := c.SendMessageBatch("tasks", nil); !errors.Is(err, queue.ErrBatchSize) {
		t.Fatalf("empty batch: got %v, want ErrBatchSize", err)
	}
	if visible, inflight, err := c.ApproximateCount("tasks"); err != nil || visible != 3 || inflight != 0 {
		t.Fatalf("ApproximateCount: %d/%d err=%v", visible, inflight, err)
	}

	seen := map[string]string{} // body -> receipt
	for i := 0; i < 3; i++ {
		m, ok, err := c.ReceiveMessage("tasks", time.Minute)
		if err != nil || !ok {
			t.Fatalf("ReceiveMessage %d: ok=%v err=%v", i, ok, err)
		}
		if m.Receives != 1 || m.ReceiptHandle == "" {
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

	if err := c.ChangeVisibility("tasks", seen["one"], time.Hour); err != nil {
		t.Fatalf("ChangeVisibility: %v", err)
	}
	if err := c.ChangeVisibility("tasks", "bogus", time.Hour); !errors.Is(err, queue.ErrStaleReceipt) {
		t.Fatalf("bogus ChangeVisibility: got %v, want ErrStaleReceipt", err)
	}
	if err := c.DeleteMessage("tasks", seen["one"]); err != nil {
		t.Fatalf("DeleteMessage: %v", err)
	}
	verdicts, err := c.DeleteMessageBatch("tasks", []string{seen["two"], "bogus", seen["three"]})
	if err != nil {
		t.Fatalf("DeleteMessageBatch: %v", err)
	}
	if verdicts[0] != nil || verdicts[2] != nil || !errors.Is(verdicts[1], queue.ErrStaleReceipt) {
		t.Fatalf("DeleteMessageBatch verdicts: %v", verdicts)
	}

	if _, err := c.SendMessage("other", []byte("x")); err != nil {
		t.Fatalf("send other: %v", err)
	}
	if err := c.Purge("other"); err != nil {
		t.Fatalf("Purge: %v", err)
	}
	if visible, inflight, _ := c.ApproximateCount("other"); visible+inflight != 0 {
		t.Fatalf("purged queue still holds %d/%d", visible, inflight)
	}

	// Billing flows through untouched: the wire face bills nothing of
	// its own, so remote and local counts agree exactly.
	if got, want := c.APIRequests(), svc.APIRequests(); got != want {
		t.Fatalf("APIRequests over wire %d != local %d", got, want)
	}
	if got, want := c.APIRequestsFor("tasks"), svc.APIRequestsFor("tasks"); got != want || got == 0 {
		t.Fatalf("APIRequestsFor over wire %d != local %d", got, want)
	}

	if err := c.DeleteQueue("other"); err != nil {
		t.Fatalf("DeleteQueue: %v", err)
	}
	if err := c.DeleteQueue("other"); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Fatalf("double DeleteQueue: got %v, want ErrNoSuchQueue", err)
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
// connection — the property the correlation-id demux exists for.
func TestPipeliningNoHeadOfLineBlocking(t *testing.T) {
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
		_, ok, err := c.ReceiveMessageWait("empty", time.Minute, 3*time.Second)
		if ok {
			err = errors.New("long poll received a message from an empty queue")
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

	wrong := dialTest(t, addr, Options{AdminToken: "stolen"})
	if _, err := wrong.TransferInBatch("q", []queue.TransferItem{{Body: []byte("x")}}); !errors.Is(err, queue.ErrNotPrivileged) {
		t.Fatalf("wrong token: got %v, want ErrNotPrivileged", err)
	}
	none := dialTest(t, addr, Options{})
	if _, err := none.TransferInBatch("q", []queue.TransferItem{{Body: []byte("x")}}); !errors.Is(err, queue.ErrNotPrivileged) {
		t.Fatalf("no token: got %v, want ErrNotPrivileged (local fast-fail)", err)
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

	c := dialTest(t, addr, Options{Conns: 1, MaxBackoff: 20 * time.Millisecond, DialTimeout: 200 * time.Millisecond})
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

// TestFallbackToHTTP points a wire client at a dead port with a JSON
// fallback configured: every call must transparently succeed over
// HTTP, and protocol errors must keep their sentinels.
func TestFallbackToHTTP(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	hs := httptest.NewServer(&queue.HTTPHandler{Service: svc, AdminTokens: []string{"tok"}})
	t.Cleanup(hs.Close)

	// A listener that is immediately closed yields a port nothing
	// serves — the wire dial is guaranteed to fail.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	c := dialTest(t, deadAddr, Options{
		DialTimeout: 200 * time.Millisecond,
		AdminToken:  "tok",
		Fallback:    &queue.HTTPClient{BaseURL: hs.URL, AdminToken: "tok"},
	})
	if err := c.CreateQueue("q"); err != nil {
		t.Fatalf("CreateQueue via fallback: %v", err)
	}
	if err := c.CreateQueue("q"); !errors.Is(err, queue.ErrQueueExists) {
		// The HTTP face treats re-create as idempotent success; accept
		// either contract but never a transport error.
		if err != nil {
			t.Fatalf("duplicate create via fallback: %v", err)
		}
	}
	if _, err := c.SendMessage("q", []byte("json-carried")); err != nil {
		t.Fatalf("SendMessage via fallback: %v", err)
	}
	m, ok, err := c.ReceiveMessage("q", time.Minute)
	if err != nil || !ok || string(m.Body) != "json-carried" {
		t.Fatalf("ReceiveMessage via fallback: ok=%v err=%v body=%q", ok, err, m.Body)
	}
	if err := c.DeleteMessage("q", m.ReceiptHandle); err != nil {
		t.Fatalf("DeleteMessage via fallback: %v", err)
	}
	if _, err := c.TransferInBatch("q", []queue.TransferItem{{Body: []byte("t"), Receives: 2}}); err != nil {
		t.Fatalf("TransferInBatch via fallback: %v", err)
	}
	if _, _, err := c.ReceiveMessage("missing", 0); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Fatalf("sentinel lost through fallback: %v", err)
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

// TestTracePropagation checks the frame's trace field reaches the
// server-side TraceScoper, the binary analogue of X-Trace-Id.
func TestTracePropagation(t *testing.T) {
	ts := &traceSvc{Service: queue.NewService(queue.Config{})}
	addr := startServer(t, &Server{Service: ts})
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

// A node that accepts the connection and never answers is unreachable
// as far as discovery is concerned: the probe gives up within its bound
// instead of waiting out the OS, so the caller stays on HTTP.
func TestDiscoverAddrGivesUpOnSilentNode(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1) // the one probe connection
	go func() {
		if c, err := ln.Accept(); err == nil {
			held <- c // kept open, never read, never answered
		}
	}()
	start := time.Now()
	addr, ok := DiscoverAddr("http://" + ln.Addr().String())
	if ok || addr != "" {
		t.Errorf("DiscoverAddr = %q, %v; want \"\", false", addr, ok)
	}
	if elapsed := time.Since(start); elapsed < defaultDialTimeout/2 || elapsed > 2*defaultDialTimeout {
		t.Errorf("probe took %v, want about %v", elapsed, defaultDialTimeout)
	}
	select {
	case c := <-held:
		c.Close()
	default:
		t.Error("the probe never connected")
	}
}
