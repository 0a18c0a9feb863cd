package queue

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestHTTPClientSentinels verifies the sentinel errors survive the HTTP
// round trip: consumers (and the shard router) must be able to use
// errors.Is instead of matching status text.
func TestHTTPClientSentinels(t *testing.T) {
	c, _ := newHTTPQueue(t, nil)
	if _, err := c.SendMessage("missing", []byte("x")); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("send to missing queue: %v", err)
	}
	if _, _, err := c.ReceiveMessage("missing", 0); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("receive from missing queue: %v", err)
	}
	if err := c.DeleteQueue("missing"); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("delete missing queue: %v", err)
	}
	if _, _, err := c.ApproximateCount("missing"); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("count missing queue: %v", err)
	}
	if err := c.Purge("missing"); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("purge missing queue: %v", err)
	}
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteMessage("q", "bogus#r1"); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("delete with bogus receipt: %v", err)
	}
	if err := c.ChangeVisibility("q", "bogus#r1", time.Minute); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("change visibility with bogus receipt: %v", err)
	}
	results, err := c.DeleteMessageBatch("q", []string{"bogus#r1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !errors.Is(results[0], ErrStaleReceipt) {
		t.Errorf("batch delete stale entry: %v", results)
	}
}

// TestHTTPClientFullAPI drives the client methods added for queue.API
// parity — queue management, counters, and billing — over a live
// handler.
func TestHTTPClientFullAPI(t *testing.T) {
	c, svc := newHTTPQueue(t, nil)
	var api API = c // compile-time and runtime: client is a full queue.API
	if err := api.CreateQueue("a"); err != nil {
		t.Fatal(err)
	}
	if err := api.CreateQueue("b"); err != nil {
		t.Fatal(err)
	}
	names := api.ListQueues()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ListQueues = %v", names)
	}
	if _, err := api.SendMessage("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, inflight, err := api.ApproximateCount("a")
	if err != nil || v != 1 || inflight != 0 {
		t.Errorf("count = %d,%d (%v)", v, inflight, err)
	}
	m, ok, err := api.ReceiveMessage("a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: ok=%v err=%v", ok, err)
	}
	if err := api.ChangeVisibility("a", m.ReceiptHandle, 0); err != nil {
		t.Errorf("release lease: %v", err)
	}
	if err := api.Purge("a"); err != nil {
		t.Errorf("purge: %v", err)
	}
	if v, inflight, _ := api.ApproximateCount("a"); v != 0 || inflight != 0 {
		t.Errorf("count after purge = %d,%d", v, inflight)
	}
	if got, want := api.APIRequestsFor("a"), svc.APIRequestsFor("a"); got != want {
		t.Errorf("APIRequestsFor over HTTP = %d, service says %d", got, want)
	}
	if got, want := api.APIRequests(), svc.APIRequests(); got != want {
		t.Errorf("APIRequests over HTTP = %d, service says %d", got, want)
	}
	if err := api.DeleteQueue("b"); err != nil {
		t.Errorf("delete queue: %v", err)
	}
	if names := api.ListQueues(); len(names) != 1 || names[0] != "a" {
		t.Errorf("ListQueues after delete = %v", names)
	}
}

// A shard that accepts connections and never answers fails the call once
// the request bound (plus the call's own long-poll wait) has passed,
// instead of hanging a router op or a stats scrape forever; and a long
// poll a live server holds for its whole wait — here longer than the
// bound alone — is not cut off, because the wait extends the deadline.
func TestHTTPClientBoundsEveryRequest(t *testing.T) {
	const bound, wait = 200 * time.Millisecond, 50 * time.Millisecond
	setHTTPRequestTimeout(t, bound)

	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			nc, err := silent.Accept()
			if err != nil {
				return
			}
			held = append(held, nc) // accepted, never read, never answered
		}
	}()
	t.Cleanup(func() {
		silent.Close()
		<-accepted
		for _, nc := range held {
			nc.Close()
		}
	})
	c := &HTTPClient{BaseURL: "http://" + silent.Addr().String()}
	start := time.Now()
	if _, err := c.ReceiveMessageBatch("q", 0, 1, wait); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("receive from a silent shard: %v, want a deadline error", err)
	}
	if took := time.Since(start); took < bound+wait || took > bound+wait+2*time.Second {
		t.Errorf("receive from a silent shard took %v, want about %v", took, bound+wait)
	}
	start = time.Now()
	if _, _, err := c.ApproximateCount("q"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("count on a silent shard: %v, want a deadline error", err)
	}
	if took := time.Since(start); took < bound || took > bound+2*time.Second {
		t.Errorf("count on a silent shard took %v, want about %v", took, bound)
	}

	live, _ := newHTTPQueue(t, nil)
	if err := live.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	msgs, err := live.ReceiveMessageBatch("q", 0, 1, bound+wait)
	if err != nil || len(msgs) != 0 {
		t.Errorf("long poll of an empty queue: %d messages, err %v", len(msgs), err)
	}
	if took := time.Since(start); took < bound+wait {
		t.Errorf("long poll returned after %v, before its %v wait", took, bound+wait)
	}
}
