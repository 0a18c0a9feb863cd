package queue

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

func newHTTPQueue(t *testing.T, clock Clock) (*HTTPClient, *Service) {
	t.Helper()
	svc := NewService(Config{Clock: clock, Seed: 1})
	srv := httptest.NewServer(&HTTPHandler{Service: svc})
	t.Cleanup(srv.Close)
	return &HTTPClient{BaseURL: srv.URL}, svc
}

func TestHTTPSendReceiveDelete(t *testing.T) {
	c, _ := newHTTPQueue(t, nil)
	if err := c.CreateQueue("tasks"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateQueue("tasks"); err != nil {
		t.Fatalf("idempotent create: %v", err)
	}
	id, err := c.SendMessage("tasks", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Error("empty id")
	}
	m, ok, err := c.ReceiveMessage("tasks", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	if string(m.Body) != "payload" {
		t.Errorf("body = %q", m.Body)
	}
	if err := c.DeleteMessage("tasks", m.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.ReceiveMessage("tasks", time.Minute); ok {
		t.Error("deleted message redelivered")
	}
}

func TestHTTPEmptyReceiveIs204(t *testing.T) {
	c, _ := newHTTPQueue(t, nil)
	c.CreateQueue("empty")
	_, ok, err := c.ReceiveMessage("empty", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty queue delivered a message")
	}
}

func TestHTTPVisibilityTimeoutOverWire(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	c, _ := newHTTPQueue(t, clock)
	c.CreateQueue("q")
	c.SendMessage("q", []byte("task"))
	m1, ok, _ := c.ReceiveMessage("q", 10*time.Second)
	if !ok {
		t.Fatal("first receive failed")
	}
	if _, ok, _ := c.ReceiveMessage("q", 10*time.Second); ok {
		t.Fatal("message should be hidden")
	}
	clock.Advance(11 * time.Second)
	m2, ok, _ := c.ReceiveMessage("q", 10*time.Second)
	if !ok {
		t.Fatal("message should reappear over HTTP too")
	}
	if m2.Receives != 2 {
		t.Errorf("receives = %d", m2.Receives)
	}
	// Stale handle → 409 → wraps ErrStaleReceipt.
	if err := c.DeleteMessage("q", m1.ReceiptHandle); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("stale delete: %v", err)
	}
}

func TestHTTPCountEndpoint(t *testing.T) {
	c, svc := newHTTPQueue(t, nil)
	c.CreateQueue("q")
	c.SendMessage("q", []byte("a"))
	c.SendMessage("q", []byte("b"))
	resp, err := http.Get(c.BaseURL + "/q/q/count")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status = %d", resp.StatusCode)
	}
	v, f, _ := svc.ApproximateCount("q")
	if v != 2 || f != 0 {
		t.Errorf("counts = %d,%d", v, f)
	}
}

func TestHTTPChangeVisibility(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	c, _ := newHTTPQueue(t, clock)
	c.CreateQueue("q")
	c.SendMessage("q", []byte("x"))
	m, _, _ := c.ReceiveMessage("q", 5*time.Second)
	resp, err := http.Post(c.BaseURL+"/q/q/messages/"+url.PathEscape(m.ReceiptHandle)+"/visibility?d=1h", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("change visibility status = %d", resp.StatusCode)
	}
	clock.Advance(10 * time.Minute)
	if _, ok, _ := c.ReceiveMessage("q", 0); ok {
		t.Error("extended message should stay hidden")
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	c, _ := newHTTPQueue(t, nil)
	if _, err := c.SendMessage("missing", nil); err == nil {
		t.Error("send to missing queue should error")
	}
	if _, _, err := c.ReceiveMessage("missing", 0); err == nil {
		t.Error("receive from missing queue should error")
	}
	resp, err := http.Get(c.BaseURL + "/q/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /q/ (list) = %d", resp.StatusCode)
	}
	// A known path with the wrong method.
	c.CreateQueue("q")
	resp, err = http.Post(c.BaseURL+"/q/q/count", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /q/q/count = %d, want 405", resp.StatusCode)
	}
	// Bad visibility duration.
	resp, err = http.Get(c.BaseURL + "/q/q/messages?visibility=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad visibility = %d", resp.StatusCode)
	}
}

func TestHTTPBatchRoundTrip(t *testing.T) {
	c, svc := newHTTPQueue(t, nil)
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	base := svc.APIRequestsFor("q")
	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	ids, err := c.SendMessageBatch("q", bodies)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	msgs, err := c.ReceiveMessageBatch("q", time.Minute, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("received %d, want 3", len(msgs))
	}
	receipts := make([]string, 0, len(msgs))
	seen := map[string]bool{}
	for _, m := range msgs {
		receipts = append(receipts, m.ReceiptHandle)
		seen[string(m.Body)] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Errorf("bodies lost in transit: %v", seen)
	}
	results, err := c.DeleteMessageBatch("q", append(receipts, "bogus"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if results[i] != nil {
			t.Errorf("delete %d: %v", i, results[i])
		}
	}
	if results[3] != ErrStaleReceipt {
		t.Errorf("bogus receipt: %v, want ErrStaleReceipt", results[3])
	}
	// Three batch calls = three billed requests, not seven.
	if got := svc.APIRequestsFor("q") - base; got != 3 {
		t.Errorf("batch round trip billed %d requests, want 3", got)
	}
	if msgs, err := c.ReceiveMessageBatch("q", time.Minute, 10, 0); err != nil || len(msgs) != 0 {
		t.Errorf("queue not empty after batch delete: %d msgs, err=%v", len(msgs), err)
	}
}

func TestHTTPLongPollOverWire(t *testing.T) {
	c, svc := newHTTPQueue(t, nil)
	c.CreateQueue("q")
	done := make(chan struct{})
	go func() {
		defer close(done)
		m, ok, err := c.ReceiveMessageWait("q", time.Minute, 5*time.Second)
		if err != nil || !ok {
			t.Errorf("long poll over HTTP: ok=%v err=%v", ok, err)
			return
		}
		if string(m.Body) != "late" {
			t.Errorf("body = %q", m.Body)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := svc.SendMessage("q", []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("HTTP long poll never returned")
	}
}

func TestHTTPWorkerLoopEndToEnd(t *testing.T) {
	// A worker speaking only HTTP drains the queue — the paper's claim
	// that any HTTP-capable client can participate (e.g. local machines
	// augmenting cloud capacity).
	c, _ := newHTTPQueue(t, nil)
	c.CreateQueue("jobs")
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := c.SendMessage("jobs", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for {
		m, ok, err := c.ReceiveMessage("jobs", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[m.ID] = true
		if err := c.DeleteMessage("jobs", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != n {
		t.Errorf("drained %d messages, want %d", len(seen), n)
	}
}
