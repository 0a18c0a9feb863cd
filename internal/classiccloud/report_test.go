package classiccloud

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/queue"
)

// flakyMonitor is a queue.API double whose failAt-th send to the monitor
// queue (SendMessage or SendMessageBatch, 1-based) returns an error —
// after delivering the messages anyway when lostAck is set, the way a
// response lost on the wire looks to the sender.
type flakyMonitor struct {
	queue.API
	monitor string
	failAt  int64
	lostAck bool
	sends   atomic.Int64
}

var errMonitorDown = errors.New("injected monitor-queue fault")

func (f *flakyMonitor) fails(q string) bool {
	return q == f.monitor && f.sends.Add(1) == f.failAt
}

func (f *flakyMonitor) SendMessage(q string, body []byte) (string, error) {
	if f.fails(q) {
		if f.lostAck {
			_, _ = f.API.SendMessage(q, body)
		}
		return "", errMonitorDown
	}
	return f.API.SendMessage(q, body)
}

func (f *flakyMonitor) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	if f.fails(q) {
		if f.lostAck {
			_, _ = f.API.SendMessageBatch(q, bodies)
		}
		return nil, errMonitorDown
	}
	return f.API.SendMessageBatch(q, bodies)
}

// A worker whose monitor report was not accepted must not acknowledge
// the tasks it covered: deleting them would lose their settlement for
// good and the job would never complete. They redeliver on the
// visibility timeout and are re-executed and re-reported instead; when
// the "failed" report did in fact land, the settlement fold counts the
// second one as a duplicate.
func TestFailedMonitorReportDoesNotAckTask(t *testing.T) {
	for _, tc := range []struct {
		name, job string
		lostAck   bool
	}{
		{name: "send rejected", job: "flaky-rejected"},
		{name: "send delivered but reported failed", job: "flaky-lost-ack", lostAck: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv()
			cfg := Config{JobName: tc.job, VisibilityTimeout: 100 * time.Millisecond}
			env.Queue = &flakyMonitor{API: env.Queue, monitor: cfg.MonitorQueue(), failAt: 2, lostAck: tc.lostAck}
			client := NewClient(env, cfg)
			if err := client.Setup(); err != nil {
				t.Fatal(err)
			}
			tasks, err := client.SubmitFiles(makeFiles(12))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := StartInstance(env, cfg, upperExec, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Stop()

			// Drain with the client's own primitive and fold, so the test
			// can keep watching for the repeat after the job has settled.
			s := NewSettlement()
			wantDups := 0
			if tc.lostAck {
				wantDups = 1
			}
			deadline := time.Now().Add(5 * time.Second)
			for s.Settled() < len(tasks) || s.Dups < wantDups {
				if time.Now().After(deadline) {
					t.Fatalf("settled %d/%d tasks with %d repeats (want >= %d): the unreported tasks were acknowledged",
						s.Settled(), len(tasks), s.Dups, wantDups)
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
			if got := inst.Stats().ReportErrors.Load(); got != 1 {
				t.Errorf("ReportErrors = %d, want 1", got)
			}
			if executed := inst.Stats().TasksExecuted.Load(); executed <= int64(len(tasks)) {
				t.Errorf("TasksExecuted = %d, want > %d: the unreported batch was never re-executed", executed, len(tasks))
			}
			if _, err := client.CollectOutputs(tasks); err != nil {
				t.Error(err)
			}
		})
	}
}

// The same hole in deadLetter: a poison task whose dead report is not
// accepted stays in the task queue, so a later delivery dead-letters and
// reports it again, instead of being deleted with nobody told.
func TestFailedDeadReportDoesNotAckTask(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "flaky-dead", VisibilityTimeout: 50 * time.Millisecond,
		MaxReceives: 1, DeadLetterQueue: "flaky-dead/dead"}
	// Every execution fails, so the only monitor sends are dead reports.
	env.Queue = &flakyMonitor{API: env.Queue, monitor: cfg.MonitorQueue(), failAt: 1}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(1))
	if err != nil {
		t.Fatal(err)
	}
	broken := FuncExecutor{AppName: "broken", Fn: func(Task, []byte) ([]byte, error) {
		return nil, errors.New("permanently broken input")
	}}
	inst, err := StartInstance(env, cfg, broken, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 5*time.Second)
	if err != nil {
		t.Fatalf("job never settled: the unreported poison task was deleted: %v", err)
	}
	if rep.DeadLettered != 1 || rep.Completed != 0 {
		t.Errorf("report = %+v, want 1 dead-lettered", rep)
	}
	if got := inst.Stats().ReportErrors.Load(); got != 1 {
		t.Errorf("ReportErrors = %d, want 1", got)
	}
}

// encodeReports is the monitor body a worker of reps[0]'s instance type
// writes for reps, spelt from MonitorReport's layout; reps must not be
// empty.
func encodeReports(reps []MonitorReport) []byte {
	e := codec.Enc{}
	e.Str(reps[0].InstanceType)
	for _, r := range reps {
		e.Str(r.TaskID)
		if r.Dead {
			e.Byte(1)
		} else {
			e.Byte(0)
		}
		e.U64(uint64(r.ServiceTime))
	}
	return e.B
}

// A monitor body is refused from its first damaged byte on, and the
// entries before the damage are kept.
func TestMalformedMonitorBodies(t *testing.T) {
	kept := []MonitorReport{{TaskID: "t1", ServiceTime: 7 * time.Millisecond, InstanceType: "aws/Large"}}
	one := encodeReports(kept)
	damaged := func(tail ...byte) []byte { return slices.Concat(one, tail) }
	for _, tc := range []struct {
		name string
		body []byte
		kept []MonitorReport
	}{
		{"empty body", nil, nil},
		{"header cut short", []byte{9, 'a', 'w', 's'}, nil},
		{"header only", one[:1+len("aws/Large")], nil},
		{"empty task ID", damaged(0, 0, 0), kept},
		{"status byte 2", damaged(2, 't', '2', 2, 0), kept},
		{"entry cut short", damaged(2, 't', '2'), kept},
		{"truncated uvarint", damaged(2, 't', '2', 0, 0x80), kept},
		{"overlong uvarint", damaged(2, 't', '2', 0, 0x80, 0x00), kept},
	} {
		got, err := UnmarshalMonitorReports(nil, tc.body)
		if !errors.Is(err, codec.ErrCorrupt) || !slices.Equal(got, tc.kept) {
			t.Errorf("%s: %q decoded to %+v, %v; want %+v and %v", tc.name, tc.body, got, err, tc.kept, codec.ErrCorrupt)
		}
	}
}

// Any queue client can write to a monitor queue, so
// UnmarshalMonitorReports reads outside input: arbitrary bytes decode or
// fail without panicking, whatever decodes re-encodes to exactly the
// body, and the reports decoded before an error re-encode to a prefix of
// it. Up to MaxBatch reports built from the fuzzed fields round-trip
// exactly through one body.
func FuzzMonitorReport(f *testing.F) {
	f.Add(encodeReports([]MonitorReport{{TaskID: "file001.fsa", ServiceTime: 42 * time.Millisecond, InstanceType: "aws/Large"},
		{TaskID: "file002.fsa", Dead: true}}),
		"aws/Large", "t", false, uint64(42), uint8(1))
	f.Add([]byte(`{"task_id":"t1","worker_id":3,"status":"done","service_ns":42}`),
		"", "", true, uint64(0), uint8(10))
	f.Add([]byte{}, "\xff", "\x00", false, uint64(math.MaxUint64), uint8(0))
	f.Add([]byte{0}, "a", "b", true, uint64(1), uint8(3))
	f.Add([]byte{0, 1, 'x', 2, 0}, "a", "b", false, uint64(1), uint8(2))
	f.Add([]byte{0, 1, 'x', 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "a", "b", false, uint64(1<<63), uint8(1))
	f.Add([]byte{0, 1, 'x', 1, 0x80, 0x00}, "a", "b", true, uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, instanceType, taskID string, dead bool, ns uint64, k uint8) {
		got, err := UnmarshalMonitorReports(nil, body)
		switch {
		case err == nil && (len(got) == 0 || !bytes.Equal(encodeReports(got), body)):
			t.Fatalf("body %q decoded to %+v, which encodes as %q", body, got, encodeReports(got))
		case err != nil && len(got) > 0 && !bytes.HasPrefix(body, encodeReports(got)):
			t.Fatalf("body %q decoded to %+v before %v, which encode as %q", body, got, err, encodeReports(got))
		}

		want := make([]MonitorReport, 1+int(k)%queue.MaxBatch)
		for i := range want {
			want[i] = MonitorReport{TaskID: taskID + strconv.Itoa(i), Dead: dead != (i%2 == 1),
				ServiceTime: time.Duration(ns - uint64(i)), InstanceType: instanceType}
		}
		got, err = UnmarshalMonitorReports(nil, encodeReports(want))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("round trip of %d reports = %+v, %v; want %+v", len(want), got, err, want)
		}
	})
}
