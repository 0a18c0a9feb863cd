package shard

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/wire"
)

// newTestRouter builds a router over n fresh local services.
func newTestRouter(t *testing.T, n int) (*Router, []*queue.Service) {
	t.Helper()
	r := NewRouter(Config{})
	t.Cleanup(r.Close)
	svcs := make([]*queue.Service, n)
	for i := range svcs {
		svcs[i] = queue.NewService(queue.Config{Seed: int64(i + 1)})
		if err := r.AddShard(fmt.Sprintf("s%d", i), svcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return r, svcs
}

// TestRouterRoundTrip drives the full message lifecycle through a
// 4-shard router: the surface behaves exactly like one service.
func TestRouterRoundTrip(t *testing.T) {
	r, _ := newTestRouter(t, 4)
	const queues = 16
	for i := 0; i < queues; i++ {
		if err := r.CreateQueue(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.ListQueues()); got != queues {
		t.Fatalf("ListQueues = %d names", got)
	}
	// Queues actually spread over shards.
	used := map[string]bool{}
	for _, owner := range r.Owners() {
		used[owner] = true
	}
	if len(used) < 2 {
		t.Errorf("16 queues all landed on %d shard(s)", len(used))
	}
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("q%d", i)
		body := fmt.Sprintf("task-%d", i)
		if _, err := r.SendMessage(qn, []byte(body)); err != nil {
			t.Fatal(err)
		}
		m, ok, err := r.ReceiveMessage(qn, time.Minute)
		if err != nil || !ok {
			t.Fatalf("receive %s: ok=%v err=%v", qn, ok, err)
		}
		if string(m.Body) != body {
			t.Fatalf("got body %q want %q", m.Body, body)
		}
		if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil {
			t.Fatalf("delete %s: %v", qn, err)
		}
		if v, inf, _ := r.ApproximateCount(qn); v != 0 || inf != 0 {
			t.Fatalf("%s not empty after delete: %d,%d", qn, v, inf)
		}
	}
}

// TestRouterBatchAndVisibility exercises batch APIs and lease handling
// through the router.
func TestRouterBatchAndVisibility(t *testing.T) {
	r, _ := newTestRouter(t, 3)
	if err := r.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if _, err := r.SendMessageBatch("q", bodies); err != nil {
		t.Fatal(err)
	}
	msgs, err := r.ReceiveMessageBatch("q", time.Minute, queue.MaxBatch, 0)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("batch receive: %d msgs, %v", len(msgs), err)
	}
	// Shrink one lease to zero: the message comes back.
	if err := r.ChangeVisibility("q", msgs[0].ReceiptHandle, 0); err != nil {
		t.Fatal(err)
	}
	if m, ok, _ := r.ReceiveMessage("q", time.Minute); !ok || m.ID != msgs[0].ID {
		t.Fatalf("released message not redelivered (ok=%v)", ok)
	}
	receipts := []string{msgs[1].ReceiptHandle, msgs[2].ReceiptHandle, "bogus"}
	results, err := r.DeleteMessageBatch("q", receipts)
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != nil || results[1] != nil {
		t.Errorf("valid receipts errored: %v", results[:2])
	}
	if !errors.Is(results[2], queue.ErrStaleReceipt) {
		t.Errorf("bogus receipt: %v", results[2])
	}
}

// TestRouterSentinels: the router reports the same sentinels a single
// service would, and distinguishes deleted queues from stale receipts.
func TestRouterSentinels(t *testing.T) {
	r, _ := newTestRouter(t, 2)
	if _, err := r.SendMessage("missing", nil); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Errorf("send to missing queue: %v", err)
	}
	if err := r.CreateQueue(""); !errors.Is(err, queue.ErrEmptyQueueName) {
		t.Errorf("create empty name: %v", err)
	}
	if err := r.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateQueue("q"); !errors.Is(err, queue.ErrQueueExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := r.DeleteMessage("q", "not-wrapped"); !errors.Is(err, queue.ErrStaleReceipt) {
		t.Errorf("unroutable receipt: %v", err)
	}
	if err := r.DeleteMessage("q", "ghost~q-1#r1"); !errors.Is(err, queue.ErrStaleReceipt) {
		t.Errorf("receipt from unknown shard: %v", err)
	}
	if err := r.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteQueue("q"); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Errorf("double delete: %v", err)
	}
	if _, _, err := r.ReceiveMessage("q", 0); !errors.Is(err, queue.ErrNoSuchQueue) {
		t.Errorf("receive from deleted queue: %v", err)
	}
	empty := NewRouter(Config{})
	defer empty.Close()
	if err := empty.CreateQueue("q"); !errors.Is(err, ErrNoShards) {
		t.Errorf("create with no shards: %v", err)
	}
}

// TestRouterLongPollWakeup: a receiver blocked through the router wakes
// when a send lands on the owning shard.
func TestRouterLongPollWakeup(t *testing.T) {
	r, _ := newTestRouter(t, 4)
	if err := r.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	got := make(chan queue.Message, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		m, ok, err := r.ReceiveMessageWait("q", time.Minute, 5*time.Second)
		if err == nil && ok {
			got <- m
		}
	}()
	<-ready
	time.Sleep(2 * time.Millisecond) // let the receiver block on the shard
	if _, err := r.SendMessage("q", []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Body) != "wake" {
			t.Errorf("woke with %q", m.Body)
		}
		if err := r.DeleteMessage("q", m.ReceiptHandle); err != nil {
			t.Errorf("delete after wakeup: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long poll through the router never woke")
	}
}

// TestRouterBilling: the router attributes one request per routed call
// per queue, like a single service, and shard stats expose the
// backends' own counters.
func TestRouterBilling(t *testing.T) {
	r, _ := newTestRouter(t, 2)
	if err := r.CreateQueue("q"); err != nil { // 1 request
		t.Fatal(err)
	}
	base := r.APIRequestsFor("q")
	if _, err := r.SendMessage("q", []byte("x")); err != nil { // +1
		t.Fatal(err)
	}
	m, _, err := r.ReceiveMessage("q", time.Minute) // +1
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteMessage("q", m.ReceiptHandle); err != nil { // +1
		t.Fatal(err)
	}
	if got := r.APIRequestsFor("q") - base; got != 3 {
		t.Errorf("billed %d requests for send/receive/delete, want 3", got)
	}
	var shardReq int64
	for _, st := range r.Snapshot().Shards {
		shardReq += st.Requests
	}
	if shardReq < 4 {
		t.Errorf("shard-side requests = %d, want ≥4", shardReq)
	}
}

// remoteShard serves svc over the wire protocol on a loopback listener,
// provisioning token for transfers when it is set, and returns a client
// for it: a remote shard as cmd/queuerouter reaches one.
func remoteShard(t *testing.T, svc *queue.Service, token string) *wire.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Service: svc}
	if token != "" {
		srv.AdminTokens = []string{token}
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c := wire.Dial(ln.Addr().String(), wire.Options{AdminToken: token})
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRouterRemoteShard: a shard reached through the wire client
// behaves like a local one — the sentinel mapping keeps the router's
// wrong-shard/deleted distinction working over the wire.
func TestRouterRemoteShard(t *testing.T) {
	remote := queue.NewService(queue.Config{Seed: 7})
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.AddShard("local", queue.NewService(queue.Config{Seed: 8})); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("remote", remoteShard(t, remote, "")); err != nil {
		t.Fatal(err)
	}
	// Create queues until one lands on the remote shard.
	var remoteQueue string
	for i := 0; i < 64 && remoteQueue == ""; i++ {
		qn := fmt.Sprintf("q%d", i)
		if err := r.CreateQueue(qn); err != nil {
			t.Fatal(err)
		}
		if r.Owners()[qn] == "remote" {
			remoteQueue = qn
		}
	}
	if remoteQueue == "" {
		t.Fatal("no queue landed on the remote shard")
	}
	if _, err := r.SendMessage(remoteQueue, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := remote.ApproximateCount(remoteQueue); v != 1 {
		t.Fatalf("remote service did not receive the message (visible=%d)", v)
	}
	m, ok, err := r.ReceiveMessage(remoteQueue, time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive via remote shard: ok=%v err=%v", ok, err)
	}
	if err := r.DeleteMessage(remoteQueue, m.ReceiptHandle); err != nil {
		t.Fatalf("delete via remote shard: %v", err)
	}
	if err := r.DeleteMessage(remoteQueue, m.ReceiptHandle); !errors.Is(err, queue.ErrStaleReceipt) {
		t.Errorf("stale delete over the wire: %v", err)
	}
}

// A receipt names one message for good through every second life a
// queue can have on one shard: deleted and recreated through the
// router, or moved away — the forwarder deleting its empty residue —
// and back. A spent first-life receipt is refused there, and the second
// life's message stays.
func TestRouterRecreatedQueueRefusesFirstLifeReceipts(t *testing.T) {
	for _, how := range []string{"delete and recreate", "move away and back"} {
		t.Run(how, func(t *testing.T) {
			const qn = "twice"
			r := NewRouter(Config{ForwardInterval: time.Millisecond})
			defer r.Close()
			a := queue.NewService(queue.Config{Seed: 1})
			for id, svc := range map[string]*queue.Service{"a": a, "b": queue.NewService(queue.Config{Seed: 2})} {
				if err := r.AddShard(id, svc); err != nil {
					t.Fatal(err)
				}
			}
			life := func(body string) queue.Message {
				t.Helper()
				if _, err := r.SendMessage(qn, []byte(body)); err != nil {
					t.Fatal(err)
				}
				m, ok, err := r.ReceiveMessage(qn, time.Hour)
				if err != nil || !ok || string(m.Body) != body {
					t.Fatalf("receive in the %s life: %+v ok=%v err=%v", body, m, ok, err)
				}
				return m
			}
			if err := r.CreateQueue(qn); err != nil {
				t.Fatal(err)
			}
			moveTo(t, r, qn, "a")
			first := life("first")
			if err := r.DeleteMessage(qn, first.ReceiptHandle); err != nil {
				t.Fatal(err)
			}
			if how == "delete and recreate" {
				if err := r.DeleteQueue(qn); err != nil {
					t.Fatal(err)
				}
				if err := r.CreateQueue(qn); err != nil {
					t.Fatal(err)
				}
			} else {
				moveTo(t, r, qn, "b")
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					if _, _, err := a.QueueDepth(qn); errors.Is(err, queue.ErrNoSuchQueue) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the forwarder never deleted the empty residue on a")
					}
				}
				moveTo(t, r, qn, "a")
			}
			if owner := r.Owners()[qn]; owner != "a" {
				t.Fatalf("second life on %s, the case wants it on a", owner)
			}
			second := life("second")
			if err := r.ChangeVisibility(qn, second.ReceiptHandle, 0); err != nil {
				t.Fatal(err)
			}
			if err := r.DeleteMessage(qn, first.ReceiptHandle); !errors.Is(err, queue.ErrStaleReceipt) {
				t.Errorf("spent first-life receipt %s deleted a second-life message: %v", first.ReceiptHandle, err)
			}
			if m, ok, err := r.ReceiveMessage(qn, time.Hour); err != nil || !ok || string(m.Body) != "second" {
				t.Errorf("second life's message gone: %+v ok=%v err=%v", m, ok, err)
			}
		})
	}
}
