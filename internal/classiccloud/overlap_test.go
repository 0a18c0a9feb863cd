package classiccloud

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queue"
)

// orderedQueue is a queue.API double that logs every non-empty task
// receive, monitor send and task delete in the order they reach it, and
// holds the first two monitor sends: send k closes held[k], then waits
// until task receive k+2 has arrived (closing received[k]) and the test
// closes release[k].
type orderedQueue struct {
	queue.API
	mu                      sync.Mutex
	log                     []string
	receives, sends         int
	held, received, release [2]chan struct{}
}

func newOrderedQueue(api queue.API) *orderedQueue {
	o := &orderedQueue{API: api}
	for k := range o.held {
		o.held[k], o.received[k], o.release[k] = make(chan struct{}), make(chan struct{}), make(chan struct{})
	}
	return o
}

func (o *orderedQueue) record(op string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.log = append(o.log, op)
}

func (o *orderedQueue) entries() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.log...)
}

func (o *orderedQueue) ReceiveMessageBatch(q string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if strings.HasSuffix(q, "/tasks") {
		o.mu.Lock()
		o.receives++
		if k := o.receives - 2; k >= 0 && k < len(o.received) {
			close(o.received[k])
		}
		o.mu.Unlock()
	}
	msgs, err := o.API.ReceiveMessageBatch(q, visibility, max, wait)
	if strings.HasSuffix(q, "/tasks") && len(msgs) > 0 {
		o.record(fmt.Sprintf("receive %d", len(msgs)))
	}
	return msgs, err
}

func (o *orderedQueue) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	if strings.HasSuffix(q, "/monitor") {
		o.mu.Lock()
		o.log = append(o.log, "send")
		k := o.sends
		o.sends++
		o.mu.Unlock()
		if k < len(o.held) {
			close(o.held[k])
			<-o.received[k]
			<-o.release[k]
		}
	}
	return o.API.SendMessageBatch(q, bodies)
}

func (o *orderedQueue) DeleteMessageBatch(q string, receipts []string) ([]error, error) {
	res, err := o.API.DeleteMessageBatch(q, receipts)
	if strings.HasSuffix(q, "/tasks") {
		o.record("delete")
	}
	return res, err
}

// A worker acknowledges one batch while it receives and runs the next:
// each batch's report send is held until the worker's next receive has
// reached the queue, which only a worker that does not wait for its
// acknowledgement can make. The second acknowledgement starts only once
// the first has finished, every batch is reported before it is deleted,
// with 3 requests per batch, and Stop returns only after the held
// acknowledgement has been released and its delete is done.
func TestWorkerAcknowledgesWhileItRunsTheNextBatch(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "overlap", VisibilityTimeout: time.Minute}
	oq := newOrderedQueue(env.Queue)
	env.Queue = oq
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitFiles(makeFiles(2 * ReceiveBatch)); err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A failure leaves the worker blocked in the double; the test binary
	// exits all the same.
	await := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal(what)
		}
	}
	for k := range oq.held {
		await(oq.held[k], fmt.Sprintf("acknowledgement %d never started", k+1))
		await(oq.received[k], fmt.Sprintf("the worker did not receive again while acknowledgement %d was held", k+1))
		if k < len(oq.held)-1 {
			oq.record("release")
			close(oq.release[k])
		}
	}
	// The worker is idle in its long poll with the last acknowledgement
	// still held: Stop must wait for it.
	stopped := make(chan struct{})
	go func() {
		inst.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned with an acknowledgement still held")
	case <-time.After(4 * longPollWait):
	}
	oq.record("release")
	close(oq.release[len(oq.release)-1])
	await(stopped, "Stop did not return once the acknowledgement was released")
	oq.record("stopped")

	var receives, acks []string
	for _, op := range oq.entries() {
		if strings.HasPrefix(op, "receive") {
			receives = append(receives, op)
		} else {
			acks = append(acks, op)
		}
	}
	full := fmt.Sprintf("receive %d", ReceiveBatch)
	if got, want := strings.Join(receives, ", "), full+", "+full; got != want {
		t.Errorf("task receives %s, want %s", got, want)
	}
	if got, want := strings.Join(acks, ", "), "send, release, delete, send, release, delete, stopped"; got != want {
		t.Errorf("acknowledgements %s, want %s", got, want)
	}
	if n := inst.Stats().TasksExecuted.Load(); n != 2*ReceiveBatch {
		t.Errorf("%d tasks executed, want %d", n, 2*ReceiveBatch)
	}
	if visible, inflight, err := env.Queue.ApproximateCount(cfg.TaskQueue()); err != nil || visible+inflight != 0 {
		t.Errorf("task queue holds %d visible + %d in flight (%v), want every task deleted", visible, inflight, err)
	}
}

// slowDeleteQueue is a queue.API double that answers each task delete
// only hold after it has landed, and counts task lease renewals the
// queue refuses as stale.
type slowDeleteQueue struct {
	queue.API
	hold  time.Duration
	stale atomic.Int64
}

func (q *slowDeleteQueue) DeleteMessageBatch(name string, receipts []string) ([]error, error) {
	res, err := q.API.DeleteMessageBatch(name, receipts)
	if strings.HasSuffix(name, "/tasks") {
		time.Sleep(q.hold)
	}
	return res, err
}

func (q *slowDeleteQueue) ChangeVisibility(name, receipt string, d time.Duration) error {
	err := q.API.ChangeVisibility(name, receipt, d)
	if errors.Is(err, queue.ErrStaleReceipt) {
		q.stale.Add(1)
	}
	return err
}

// A worker stops renewing a batch's leases before it deletes the batch,
// so no renewal reaches the queue after the delete: the queue would
// refuse it as stale, and a stale renewal reads as a lost lease. Each
// delete here answers more than a heartbeat after it landed, so a
// renewer that still held the deleted receipts would renew them in that
// time; the 300 ms lease is renewed every 100 ms, so none is lost.
func TestNoLeaseRenewalFollowsItsDelete(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "renew", VisibilityTimeout: 300 * time.Millisecond}
	sq := &slowDeleteQueue{API: env.Queue, hold: cfg.VisibilityTimeout/heartbeatsPerLease + 20*time.Millisecond}
	env.Queue = sq
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(2 * ReceiveBatch))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.WaitForCompletion(tasks, 10*time.Second)
	inst.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if n := sq.stale.Load(); n != 0 {
		t.Errorf("%d lease renewals were refused as stale: the renewer renewed receipts after their delete", n)
	}
	if n := inst.Stats().StaleDeletes.Load(); n != 0 {
		t.Errorf("%d deletes were stale: a lease lapsed", n)
	}
}
