package classiccloud

import (
	"bytes"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
)

// callLog is a queue.API double that records every send, delete and
// non-empty task receive as "op queue", with each monitor send's bodies
// and each task receive's and task delete's receipts. The first task
// receive's first message is handed over as received overCap times.
type callLog struct {
	queue.API
	overCap           int
	mu                sync.Mutex
	calls             []string
	monitorBodies     [][]byte
	received, deleted []string
}

func (c *callLog) record(op, q string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, op+" "+q)
}

func (c *callLog) ReceiveMessageBatch(q string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	msgs, err := c.API.ReceiveMessageBatch(q, visibility, max, wait)
	if strings.HasSuffix(q, "/tasks") && len(msgs) > 0 {
		c.record("ReceiveMessageBatch", q)
		c.mu.Lock()
		if c.received == nil {
			msgs[0].Receives = c.overCap
			for _, m := range msgs {
				c.received = append(c.received, m.ReceiptHandle)
			}
		}
		c.mu.Unlock()
	}
	return msgs, err
}

func (c *callLog) SendMessage(q string, body []byte) (string, error) {
	c.record("SendMessage", q)
	return c.API.SendMessage(q, body)
}

func (c *callLog) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	c.record("SendMessageBatch", q)
	if strings.HasSuffix(q, "/monitor") {
		c.mu.Lock()
		for _, b := range bodies {
			c.monitorBodies = append(c.monitorBodies, bytes.Clone(b))
		}
		c.mu.Unlock()
	}
	return c.API.SendMessageBatch(q, bodies)
}

func (c *callLog) DeleteMessage(q, receipt string) error {
	c.record("DeleteMessage", q)
	return c.API.DeleteMessage(q, receipt)
}

func (c *callLog) DeleteMessageBatch(q string, receipts []string) ([]error, error) {
	c.record("DeleteMessageBatch", q)
	if strings.HasSuffix(q, "/tasks") {
		c.mu.Lock()
		c.deleted = append(c.deleted, receipts...)
		c.mu.Unlock()
	}
	return c.API.DeleteMessageBatch(q, receipts)
}

// A poison message costs no queue call of its own beyond parking it on
// the dead-letter queue: its dead report travels in its batch's one
// monitor message and its receipt in the batch's one delete.
func TestDeadLetterRidesTheBatch(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "ride", VisibilityTimeout: time.Minute, MaxReceives: 1, DeadLetterQueue: "ride/dead"}
	cl := &callLog{API: env.Queue, overCap: cfg.MaxReceives + 1}
	env.Queue = cl
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(ReceiveBatch))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := client.WaitForCompletion(tasks, 10*time.Second)
	inst.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != ReceiveBatch-1 || rep.DeadLettered != 1 {
		t.Errorf("report = %+v, want %d completed and 1 dead", rep, ReceiveBatch-1)
	}
	if got := inst.Stats().DeadLettered.Load(); got != 1 {
		t.Errorf("instance DeadLettered = %d, want 1", got)
	}

	cl.mu.Lock()
	defer cl.mu.Unlock()
	count := func(call string) int {
		n := 0
		for _, c := range cl.calls {
			if c == call {
				n++
			}
		}
		return n
	}
	for call, want := range map[string]int{
		"ReceiveMessageBatch ride/tasks": 1,
		"SendMessageBatch ride/monitor":  1,
		"SendMessage ride/monitor":       0,
		"SendMessage ride/dead":          1,
		"DeleteMessageBatch ride/tasks":  1,
		"DeleteMessage ride/tasks":       0,
	} {
		if got := count(call); got != want {
			t.Errorf("%d × %s, want %d; calls: %v", got, call, want, cl.calls)
		}
	}
	if len(cl.received) != ReceiveBatch {
		t.Fatalf("the first receive held %d messages, want %d", len(cl.received), ReceiveBatch)
	}
	slices.Sort(cl.deleted)
	slices.Sort(cl.received)
	if !slices.Equal(cl.deleted, cl.received) {
		t.Errorf("task deletes covered %v, want every received receipt %v", cl.deleted, cl.received)
	}
	if len(cl.monitorBodies) != 1 {
		t.Fatalf("%d monitor bodies, want 1", len(cl.monitorBodies))
	}
	reports, err := UnmarshalMonitorReports(nil, cl.monitorBodies[0])
	if err != nil {
		t.Fatal(err)
	}
	status := map[string]string{}
	for _, r := range reports {
		status[r.TaskID] = r.Status
	}
	dead := 0
	for _, task := range tasks {
		switch status[task.ID] {
		case StatusDead:
			dead++
		case StatusDone:
		default:
			t.Errorf("the batch's monitor message has no report of %s: %+v", task.ID, reports)
		}
	}
	if len(reports) != len(tasks) || dead != 1 {
		t.Errorf("the batch's monitor message holds %d reports, %d dead; want %d, 1 dead: %+v",
			len(reports), dead, len(tasks), reports)
	}
}

// parkedReceives is a queue.API double whose task receives each wait
// until release is closed; arrived gets a token per receive while it has
// room.
type parkedReceives struct {
	queue.API
	arrived chan struct{}
	release chan struct{}
}

func (p *parkedReceives) ReceiveMessageBatch(q string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if strings.HasSuffix(q, "/tasks") {
		select {
		case p.arrived <- struct{}{}:
		default:
		}
		<-p.release
	}
	return p.API.ReceiveMessageBatch(q, visibility, max, wait)
}

// instanceGoroutines counts the goroutines running an Instance method
// (or a closure inside one) that the calling goroutine started, directly
// or through goroutines it started: so goroutines other tests left
// behind, still on their way out, are not counted.
func instanceGoroutines(t *testing.T) int {
	t.Helper()
	self := string(bytes.Fields(debug.Stack())[1])
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	parent := map[string]string{}
	var running []string
	for _, g := range strings.Split(buf.String(), "\n\n") {
		lines := strings.Split(g, "\n")
		id := strings.Fields(lines[0])[1]
		instance := false
		for _, line := range lines {
			if _, p, ok := strings.Cut(line, " in goroutine "); ok && strings.HasPrefix(line, "created by ") {
				parent[id] = p
			}
			instance = instance || strings.HasPrefix(line, "repro/internal/classiccloud.(*Instance).")
		}
		if instance {
			running = append(running, id)
		}
	}
	n := 0
	for _, id := range running {
		for p, ok := parent[id]; ok; p, ok = parent[p] {
			if p == self {
				n++
				break
			}
		}
	}
	return n
}

// A worker is two goroutines: the one that receives and runs its tasks,
// and one acknowledger that reports, deletes and renews its leases.
func TestWorkerIsTwoGoroutines(t *testing.T) {
	const workers = 3
	env := testEnv()
	cfg := Config{JobName: "goroutines", VisibilityTimeout: time.Minute}
	pq := &parkedReceives{API: env.Queue, arrived: make(chan struct{}, workers), release: make(chan struct{})}
	env.Queue = pq
	if err := NewClient(env, cfg).Setup(); err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	defer close(pq.release)
	// Each worker starts its acknowledger before its first receive, and
	// parks in that receive, so all W receives arriving means W workers
	// are parked.
	for range workers {
		select {
		case <-pq.arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("a worker never made its first receive")
		}
	}
	if got := instanceGoroutines(t); got != 2*workers {
		t.Errorf("%d goroutines run the instance's %d workers, want %d", got, workers, 2*workers)
	}
}
