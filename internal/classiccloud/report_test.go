package classiccloud

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

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

// Any queue client can write to a monitor queue, so
// UnmarshalMonitorReports reads outside input: arbitrary bytes decode or
// fail without panicking, and decoded reports' strings are never longer
// in total than the body they came from. k reports round-trip exactly
// through one body, a body of one report (AppendTo(nil)) decodes as a
// batch of one, and whatever bytes follow whole reports, those reports
// are decoded ahead of what the bytes alone decode to, with the same
// error.
func FuzzMonitorReport(f *testing.F) {
	f.Add(MonitorReport{TaskID: "file001.fsa", WorkerID: 3, Status: StatusDone,
		ServiceTime: 42 * time.Millisecond, InstanceType: "aws/Large"}.AppendTo(nil),
		"t", int64(0), StatusDead, int64(0), "", uint8(1))
	f.Add([]byte(`{"task_id":"t1","worker_id":3,"status":"done","service_ns":42}`),
		"", int64(-1), "", int64(math.MinInt64), "azure/Small", uint8(10))
	f.Add([]byte{}, "\x00", int64(math.MaxInt64), "done", int64(math.MaxInt64), "\xff", uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "a", int64(1), "b", int64(1), "c", uint8(3))
	f.Add([]byte{0x01, 'x', 0x02, 0x00}, "a", int64(1), "b", int64(1), "c", uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, taskID string, worker int64, status string, ns int64, instanceType string, k uint8) {
		tail, tailErr := UnmarshalMonitorReports(nil, body)
		n := 0
		for _, rep := range tail {
			n += len(rep.TaskID) + len(rep.Status) + len(rep.InstanceType)
		}
		if n > len(body) {
			t.Fatalf("%d-byte body decoded to %d bytes of strings: %+v", len(body), n, tail)
		}

		want := make([]MonitorReport, int(k)%(queue.MaxBatch+1))
		var batch []byte
		for i := range want {
			want[i] = MonitorReport{TaskID: taskID + strconv.Itoa(i), WorkerID: int(worker) + i, Status: status,
				ServiceTime: time.Duration(ns) - time.Duration(i), InstanceType: instanceType}
			one := want[i].AppendTo(nil)
			if got, err := UnmarshalMonitorReports(nil, one); err != nil || len(got) != 1 || got[0] != want[i] {
				t.Fatalf("one-report body of %+v decoded to %+v, %v", want[i], got, err)
			}
			batch = append(batch, one...)
		}
		got, err := UnmarshalMonitorReports(nil, batch)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("round trip of %d reports = %+v, %v; want %+v", len(want), got, err, want)
		}
		got, err = UnmarshalMonitorReports(nil, append(batch, body...))
		if err != tailErr || !slices.Equal(got, append(want, tail...)) {
			t.Fatalf("%d reports then %q decoded to %+v, %v; want %+v then %+v, %v",
				len(want), body, got, err, want, tail, tailErr)
		}
	})
}
