package wire

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/telemetry"
)

// handlerGoroutines counts the live goroutines running a connection's
// handler loop, from a dump of every goroutine's stack.
func handlerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("wire.(*srvConn).handler("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Sequential requests on one connection reuse the handler that served
// the first: the pool does not grow with the request count, and no
// goroutine is left behind per request.
func TestHandlersOutliveTheirRequests(t *testing.T) {
	addr := startServer(t, &Server{Service: queue.NewService(queue.Config{})})
	c := dialTest(t, addr, Options{Conns: 1})
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		if _, _, err := c.ApproximateCount("q"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := runtime.NumGoroutine(); got > base+3 {
		t.Errorf("%d goroutines after 2000 sequential requests, started at %d", got, base)
	}
	if n := handlerGoroutines(); n < 1 || n > 4 {
		t.Errorf("%d handler goroutines serve one sequential client, want 1 to 4 reused ones", n)
	}
}

// parkingService parks every receive until release yields, standing in
// for long polls that outlast the test's interest in them.
type parkingService struct {
	queue.API
	parked  atomic.Int64
	release chan struct{}
}

func (p *parkingService) ReceiveMessageBatch(string, time.Duration, int, time.Duration) ([]queue.Message, error) {
	p.parked.Add(1)
	<-p.release
	return nil, nil
}

// With maxConcurrent long polls parked on one connection every handler
// is busy, so the next request waits in the reader until one returns.
func TestFullPoolMakesTheNextRequestWait(t *testing.T) {
	svc := &parkingService{API: queue.NewService(queue.Config{}), release: make(chan struct{})}
	addr := startServer(t, &Server{Service: svc})
	c := dialTest(t, addr, Options{Conns: 1})
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	polls := make(chan error, maxConcurrent)
	for i := 0; i < maxConcurrent; i++ {
		go func() {
			_, _, err := c.ReceiveMessageWait("q", time.Minute, time.Minute)
			polls <- err
		}()
	}
	var released sync.Once
	t.Cleanup(func() { released.Do(func() { close(svc.release) }) })
	waitFor(t, "every handler to park", func() bool { return svc.parked.Load() == maxConcurrent })

	answered := make(chan error, 1)
	go func() {
		_, _, err := c.ApproximateCount("q")
		answered <- err
	}()
	select {
	case err := <-answered:
		t.Fatalf("request answered (err %v) while all %d handlers were parked", err, maxConcurrent)
	case <-time.After(200 * time.Millisecond):
	}
	svc.release <- struct{}{}
	if err := <-polls; err != nil {
		t.Fatalf("released poll: %v", err)
	}
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still waiting after a handler returned")
	}
	released.Do(func() { close(svc.release) })
	for i := 1; i < maxConcurrent; i++ {
		if err := <-polls; err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
}

// Close ends every handler, idle or not, of every connection.
func TestCloseEndsEveryHandler(t *testing.T) {
	srv := &Server{Service: queue.NewService(queue.Config{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c := Dial(ln.Addr().String(), Options{Conns: 2})
	defer c.Close()
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.SendMessage("q", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if handlerGoroutines() == 0 {
		t.Fatal("no handler goroutine is idle after the burst")
	}
	srv.Close()
	waitFor(t, "every handler to exit", func() bool { return handlerGoroutines() == 0 })
}

// Concurrent callers share the first connection: sixteen callers have at
// most sixteen frames queued, never a full write queue, so a client
// allowed four connections opens one.
func TestConcurrentCallsShareOneConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr := startServer(t, &Server{Service: queue.NewService(queue.Config{})})
	c := dialTest(t, addr, Options{Conns: 4, Metrics: reg})
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	const callers, calls = 16, 50
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				if _, err := c.SendMessage("q", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := reg.Gauge(telemetry.Label("wire_client_conns", "peer", addr)).Value(); n != 1 {
		t.Errorf("wire_client_conns = %d after %d callers × %d calls, want 1", n, callers, calls)
	}
}

// When the first connection's write queue is full — its peer reads
// nothing, so its writer blocks once the socket's buffers are full —
// the next call goes out on a second connection, dialled for it, and no
// third is opened.
func TestFullWriteQueueSpillsOntoTheNextConnection(t *testing.T) {
	setRequestTimeout(t, 500*time.Millisecond)
	reg := telemetry.NewRegistry()
	addr := silentNode(t)
	c := dialTest(t, addr, Options{Conns: 4, Metrics: reg})
	conns := reg.Gauge(telemetry.Label("wire_client_conns", "peer", addr))
	body := make([]byte, 64<<10)
	errs := make(chan error, 512)
	started := 0
	for ; started < cap(errs) && conns.Value() < 2; started++ {
		go func() {
			_, err := c.SendMessage("q", body)
			errs <- err
		}()
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d callers of %d KiB started before a second connection opened", started, len(body)>>10)
	waitFor(t, "a second connection", func() bool { return conns.Value() >= 2 })
	if started <= writeQueue {
		t.Errorf("a second connection opened after %d calls, before the first queue of %d could fill", started, writeQueue)
	}
	if n := conns.Value(); n != 2 {
		t.Errorf("wire_client_conns = %d once the first queue filled, want 2", n)
	}
	c.Close()
	for i := 0; i < started; i++ {
		if err := <-errs; !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call to a silent node: %v, want ErrUnavailable", err)
		}
	}
}
