package classiccloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/journal"
	"repro/internal/queue"
)

// drainTasks receives every visible task message and returns the
// decoded tasks keyed by message ID, with each message's receive count.
func drainTasks(t *testing.T, q queue.API, name string) (map[string]Task, map[string]int) {
	t.Helper()
	tasks, receives := make(map[string]Task), make(map[string]int)
	for {
		msgs, err := q.ReceiveMessageBatch(name, time.Hour, queue.MaxBatch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return tasks, receives
		}
		for _, m := range msgs {
			var task Task
			if err := json.Unmarshal(m.Body, &task); err != nil {
				t.Fatalf("message %s: undecodable task body %q: %v", m.ID, m.Body, err)
			}
			tasks[m.ID] = task
			receives[m.ID] = m.Receives
		}
	}
}

// SubmitFiles costs one queue request per MaxBatch tasks, returns the
// tasks in sorted name order, and enqueues exactly those tasks.
func TestSubmitFilesSendsInBatches(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 11, 25} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			env := testEnv()
			cfg := Config{JobName: "batch"}
			client := NewClient(env, cfg)
			if err := client.Setup(); err != nil {
				t.Fatal(err)
			}
			files := makeFiles(n)
			names := make([]string, 0, n)
			for name := range files {
				names = append(names, name)
			}
			sort.Strings(names)

			before := env.Queue.APIRequestsFor(cfg.TaskQueue())
			tasks, err := client.SubmitFiles(files)
			if err != nil {
				t.Fatal(err)
			}
			sends := env.Queue.APIRequestsFor(cfg.TaskQueue()) - before
			if want := int64((n + queue.MaxBatch - 1) / queue.MaxBatch); sends != want {
				t.Errorf("%d tasks cost %d send requests, want %d", n, sends, want)
			}
			if want := cfg.withDefaults().TasksFromIDs(names); !reflect.DeepEqual(tasks, want) {
				t.Errorf("tasks = %+v, want TasksFromIDs(sorted names) = %+v", tasks, want)
			}

			received, _ := drainTasks(t, env.Queue, cfg.TaskQueue())
			if len(received) != n {
				t.Fatalf("received %d task messages, want %d", len(received), n)
			}
			got := make(map[string]Task, n)
			for _, task := range received {
				got[task.ID] = task
			}
			for _, task := range tasks {
				if got[task.ID] != task {
					t.Errorf("task %s round-tripped as %+v, want %+v", task.ID, got[task.ID], task)
				}
				if staged, _ := env.Blob.GetConsistent(task.InputBucket, task.InputKey); !bytes.Equal(staged, files[task.ID]) {
					t.Errorf("input %s not staged", task.InputKey)
				}
			}
		})
	}
}

// On a durable queue a submission journals one send record per batch,
// in sorted task order, and a killed service recovers the same message
// IDs, bodies and receive counts from it.
func TestSubmitFilesDurableOneRecordPerBatch(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := queue.NewFakeClock(time.Unix(1000, 0))
	dur := &queue.Durability{Store: store, Bucket: "queue-journal", Key: "shard-0"}
	qcfg := queue.Config{Clock: clk, Seed: 3, Durability: dur}
	svc := queue.NewService(qcfg)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	env := Env{Blob: blob.NewStore(blob.Config{}), Queue: svc}
	cfg := Config{JobName: "durable"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	const n = 25
	tasks, err := client.SubmitFiles(makeFiles(n))
	if err != nil {
		t.Fatal(err)
	}

	// The journal is binary; read it the way an operator would.
	var dump bytes.Buffer
	if err := queue.DumpJournal(&dump, journal.Log{Store: store, Bucket: dur.Bucket, Key: dur.Key}); err != nil {
		t.Fatal(err)
	}
	var batchSizes []int
	var ids []string
	sent := make(map[string]Task, n) // message ID → journaled task
	for _, line := range bytes.Split(bytes.TrimSpace(dump.Bytes()), []byte("\n")) {
		var rec struct {
			Op     string   `json:"op"`
			Q      string   `json:"q"`
			IDs    []string `json:"ids"`
			Bodies [][]byte `json:"bodies"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal dump line %q: %v", line, err)
		}
		if rec.Op != "send" || rec.Q != cfg.TaskQueue() {
			continue
		}
		batchSizes = append(batchSizes, len(rec.IDs))
		for i, id := range rec.IDs {
			var task Task
			if err := json.Unmarshal(rec.Bodies[i], &task); err != nil {
				t.Fatalf("journaled body of %s: %v", id, err)
			}
			ids = append(ids, id)
			sent[id] = task
		}
	}
	if want := []int{10, 10, 5}; !reflect.DeepEqual(batchSizes, want) {
		t.Fatalf("send records hold %v messages, want %v (one record per batch)", batchSizes, want)
	}
	for i, id := range ids {
		// Message IDs ascend with the sorted task order.
		if want := fmt.Sprintf("%s-%d", cfg.TaskQueue(), i+1); id != want || sent[id] != tasks[i] {
			t.Fatalf("journaled message %d = %s %+v, want %s %+v", i, id, sent[id], want, tasks[i])
		}
	}

	// Deliver a few tasks once, then kill the service.
	leased, err := svc.ReceiveMessageBatch(cfg.TaskQueue(), time.Minute, 4, 0)
	if err != nil || len(leased) != 4 {
		t.Fatalf("leased %d messages (err %v), want 4", len(leased), err)
	}
	svc.Halt()

	recovered := queue.NewService(qcfg)
	if err := recovered.Recover(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute) // expire the pre-crash leases
	gotTasks, gotReceives := drainTasks(t, recovered, cfg.TaskQueue())
	if !reflect.DeepEqual(gotTasks, sent) {
		t.Errorf("recovered messages = %+v, want the journaled %+v", gotTasks, sent)
	}
	wantReceives := make(map[string]int, n)
	for _, id := range ids {
		wantReceives[id] = 1
	}
	for _, m := range leased {
		wantReceives[m.ID] = 2
	}
	if !reflect.DeepEqual(gotReceives, wantReceives) {
		t.Errorf("recovered receive counts = %v, want %v", gotReceives, wantReceives)
	}
}

// BenchmarkSubmitFiles times one job submission against an in-process
// ephemeral queue. The file set is a map, so names reach the ordering
// step in random order and a quadratic sort shows up as ns/op.
func BenchmarkSubmitFiles(b *testing.B) {
	const n = 4096
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("file%05d.fsa", i)] = make([]byte, 128)
	}
	cfg := Config{JobName: "bench"}
	var requests int64
	var allocated uint64
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := testEnv()
		client := NewClient(env, cfg)
		if err := client.Setup(); err != nil {
			b.Fatal(err)
		}
		sent := env.Queue.APIRequestsFor(cfg.TaskQueue())
		runtime.ReadMemStats(&before)
		b.StartTimer()
		tasks, err := client.SubmitFiles(files)
		b.StopTimer()
		if err != nil || len(tasks) != n {
			b.Fatalf("submitted %d tasks, err %v", len(tasks), err)
		}
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		requests += env.Queue.APIRequestsFor(cfg.TaskQueue()) - sent
	}
	b.ReportMetric(float64(requests)/float64(b.N*n), "requests/task")
	b.ReportMetric(float64(allocated)/float64(b.N*n), "B/task")
}
