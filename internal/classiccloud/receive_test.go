package classiccloud

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
)

// sizedQueue is a queue.API double that records the max of every task
// receive, in order, and holds each one for delay before passing it on.
type sizedQueue struct {
	queue.API
	delay time.Duration
	mu    sync.Mutex
	maxes []int
}

func (s *sizedQueue) ReceiveMessageBatch(q string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if strings.HasSuffix(q, "/tasks") {
		s.mu.Lock()
		s.maxes = append(s.maxes, max)
		s.mu.Unlock()
		time.Sleep(s.delay)
	}
	return s.API.ReceiveMessageBatch(q, visibility, max, wait)
}

// A worker sizes each receive by how its tasks compare with its
// receives: its first receive asks for ReceiveBatch; once its tasks each
// run in less time than its fastest receive that returned tasks, it asks
// for queue.MaxBatch; while they run longer, it keeps asking for
// ReceiveBatch. The margins are wide both ways: instant tasks behind
// 40 ms receives, and 30 ms tasks behind receives that return at once.
func TestWorkerSizesReceivesByTaskTime(t *testing.T) {
	sleepyUpper := FuncExecutor{AppName: "sleepy", Fn: func(_ Task, in []byte) ([]byte, error) {
		time.Sleep(30 * time.Millisecond)
		return bytes.ToUpper(in), nil
	}}
	for _, tc := range []struct {
		name         string
		receiveDelay time.Duration
		exec         Executor
		tasks        int
		later        int // what every receive after the first asks for
	}{
		{name: "short tasks", receiveDelay: 40 * time.Millisecond, exec: upperExec,
			tasks: ReceiveBatch + queue.MaxBatch, later: queue.MaxBatch},
		{name: "long tasks", exec: sleepyUpper, tasks: 2*ReceiveBatch + 1, later: ReceiveBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv()
			cfg := Config{JobName: "sized", VisibilityTimeout: time.Minute}
			sq := &sizedQueue{API: env.Queue, delay: tc.receiveDelay}
			env.Queue = sq
			client := NewClient(env, cfg)
			if err := client.Setup(); err != nil {
				t.Fatal(err)
			}
			tasks, err := client.SubmitFiles(makeFiles(tc.tasks))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := StartInstance(env, cfg, tc.exec, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.WaitForCompletion(tasks, 20*time.Second)
			inst.Stop()
			if err != nil {
				t.Fatal(err)
			}
			sq.mu.Lock()
			maxes := sq.maxes
			sq.mu.Unlock()
			if len(maxes) < 2 {
				t.Fatalf("task receives asked for %v, want at least two receives", maxes)
			}
			if maxes[0] != ReceiveBatch {
				t.Errorf("first receive asked for %d, want ReceiveBatch = %d (all receives: %v)", maxes[0], ReceiveBatch, maxes)
			}
			if i := slices.IndexFunc(maxes[1:], func(m int) bool { return m != tc.later }); i >= 0 {
				t.Errorf("receive %d asked for %d, want every receive after the first to ask for %d (all receives: %v)",
					i+2, maxes[i+1], tc.later, maxes)
			}
		})
	}
}
