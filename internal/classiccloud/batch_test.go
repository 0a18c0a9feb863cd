package classiccloud

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/queue"
)

// Any queue client can write to a task queue, so parseTaskMessage reads
// outside input: arbitrary bytes parse or are poison without panicking,
// poison names no task, and a body that parses re-encodes to exactly its
// own bytes. A message built from the fuzzed fields parses back to itself
// exactly when it names a task and a range below 2^63.
func FuzzTaskMessage(f *testing.F) {
	f.Add(taskMessage{ID: "file001.fsa", Object: "file000.fsa", Off: 120, Len: 60}.appendTo(nil),
		"file001.fsa", "file000.fsa", int64(120), int64(60))
	f.Add([]byte("ghost.txt"), "", "x", int64(0), int64(0))
	f.Add([]byte{}, "t", "", int64(-1), int64(1))
	f.Add([]byte{1, 't', 0, 0x80, 0x00, 0}, "t", "o", int64(math.MaxInt64), int64(0)) // a two-byte zero
	f.Add([]byte{1, 't', 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1}, "t", "o", int64(math.MaxInt64), int64(1))
	f.Add([]byte{1, 't', 1, 'o', 2, 3, 'x'}, "t", "o", int64(2), int64(3))
	f.Fuzz(func(t *testing.T, body []byte, id, object string, off, n int64) {
		m, ok := parseTaskMessage(body)
		switch {
		case !ok && m != (taskMessage{}):
			t.Fatalf("poison body %q parsed to %+v", body, m)
		case ok && m.ID == "":
			t.Fatalf("body %q parsed to a message that names no task", body)
		case ok && !bytes.Equal(m.appendTo(nil), body):
			t.Fatalf("body %q parsed to %+v, which encodes as %q", body, m, m.appendTo(nil))
		}

		want := taskMessage{ID: id, Object: object, Off: off, Len: n}
		valid := id != "" && off >= 0 && n >= 0 && off <= math.MaxInt64-n
		got, ok := parseTaskMessage(want.appendTo(nil))
		if ok != valid || ok && got != want {
			t.Fatalf("%+v round-tripped to %+v, ok %v; want ok %v", want, got, ok, valid)
		}
	})
}

// A worker reads each run of a receive's tasks whose files follow on from
// each other in one staged object with one ranged GET, and nothing else:
// a receive over two objects, with a gap in the first, makes three reads,
// and the store sends exactly the received tasks' input bytes.
func TestReceiveReadsOneRangePerRun(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "runs", VisibilityTimeout: time.Hour}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, object := range []string{"a", "b"} {
		var ids []string
		var inputs [][]byte
		for i := range 4 {
			id := fmt.Sprintf("%s%d", object, i)
			files[id] = bytes.Repeat([]byte(object), 10*len(files)+i)
			ids, inputs = append(ids, id), append(inputs, files[id])
		}
		if err := client.SubmitBatch(cfg.TasksFromIDs(ids), inputs); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := env.Queue.ReceiveMessageBatch(cfg.TaskQueue(), time.Hour, 8, 0)
	if err != nil || len(msgs) != 8 {
		t.Fatalf("received %d task messages (%v), want 8", len(msgs), err)
	}
	// Leave a2 out: the receive holds a0 a1 | a3 | b0 b1 b2 b3.
	msgs = slices.DeleteFunc(msgs, func(m queue.Message) bool {
		tm, _ := parseTaskMessage(m.Body)
		return tm.ID == "a2"
	})
	var wantBytes int64
	for _, m := range msgs {
		tm, _ := parseTaskMessage(m.Body)
		wantBytes += int64(len(files[tm.ID]))
	}

	inst, err := StartInstance(env, cfg, upperExec, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := env.Blob.Usage()
	a, _, ran := inst.processBatch(0, msgs, &leaseSet{receipts: map[string]struct{}{}})
	after := env.Blob.Usage()
	if gets := after.GetRequests - before.GetRequests; gets != 3 {
		t.Errorf("%d ranged reads, want 3: one per run", gets)
	}
	if out := after.BytesOut - before.BytesOut; out != wantBytes {
		t.Errorf("the reads sent %d bytes, want the tasks' %d input bytes", out, wantBytes)
	}
	if ran != len(msgs) || len(a.done) != len(msgs) {
		t.Fatalf("ran %d tasks, %d done; want %d of each", ran, len(a.done), len(msgs))
	}
	for _, d := range a.done {
		if !bytes.Equal(d.output, bytes.ToUpper(files[d.id])) {
			t.Errorf("%s ran on the wrong input: output %q", d.id, d.output)
		}
	}
}

// A task redelivered after its output was written, because its report
// was lost, runs again in a second batch and is written into a second
// output object. The settlement counts the repeat in Dups, and collection
// returns the task once, byte-identical.
func TestRedeliveredTaskIsCollectedOnce(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "redeliver", VisibilityTimeout: 100 * time.Millisecond}
	// The first batch's report lands, but its sender hears a failure and
	// deletes nothing.
	env.Queue = &flakyMonitor{API: env.Queue, monitor: cfg.MonitorQueue(), failAt: 1, lostAck: true}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(ReceiveBatch)
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSettlement()
	deadline := time.Now().Add(10 * time.Second)
	for s.Settled() < len(tasks) || s.Dups < len(tasks) {
		if time.Now().After(deadline) {
			t.Fatalf("settled %d/%d tasks with %d repeats, want every task repeated", s.Settled(), len(tasks), s.Dups)
		}
		if _, err := client.DrainMonitor(longPollWait, func(reports []MonitorReport) bool {
			var done []string
			for _, rep := range reports {
				done = append(done, rep.TaskID)
			}
			s.Settle(done, nil)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	inst.Stop()
	if s.Dups != len(tasks) || len(s.Done) != len(tasks) {
		t.Errorf("settlement = %d done, %d repeats; want %d of each", len(s.Done), s.Dups, len(tasks))
	}

	copies := map[string]int{}
	if err := client.readOutputs(func(id string, _ []byte) { copies[id]++ }); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if copies[task.ID] < 2 {
			t.Errorf("%s is in %d output objects, want a copy from each delivery", task.ID, copies[task.ID])
		}
	}
	outputs, err := client.CollectOutputs(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != len(tasks) {
		t.Errorf("collected %d outputs, want %d", len(outputs), len(tasks))
	}
	for name, in := range files {
		if !bytes.Equal(outputs[name], bytes.ToUpper(in)) {
			t.Errorf("%s: collected %q", name, outputs[name])
		}
	}
}
