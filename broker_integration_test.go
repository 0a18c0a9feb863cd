// Integration test for the elastic job broker: the acceptance scenario
// of the broker subsystem. ≥100 CAP3 tasks are submitted through
// brokerd's HTTP API with an injected worker crash, a spot preemption,
// and a poison task; the pool must scale up and back down, the poison
// task must land on the dead-letter queue after the retry cap, every
// other task must complete, and the elastic fleet must bill fewer
// instance-hours than a fixed fleet of the autoscaler's maximum size.
package repro

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/workload"
)

func TestBrokerElasticEndToEnd(t *testing.T) {
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 42}),
	}
	// The visibility timeout needs real margin over worst-case task
	// wall time (CPU oversubscription stretches ~10ms of assembly work
	// to hundreds of ms on small CI machines); leases that expire
	// mid-execution inflate receive counts toward the dead-letter cap.
	b := broker.New(broker.Config{
		Env:                env,
		WorkersPerInstance: 2,
		VisibilityTimeout:  600 * time.Millisecond,
		MaxReceives:        5,
		TickInterval:       15 * time.Millisecond,
		// Backlog 101 / 24 sizes the fleet to at most 5 instances (plus
		// a replacement for the preempted one), comfortably under the
		// fixed-fleet baseline of 8 the cost report compares against.
		Autoscale: broker.AutoscalePolicy{
			MinInstances:       1,
			MaxInstances:       8,
			BacklogPerInstance: 24,
			ScaleDownCooldown:  60 * time.Millisecond,
		},
	})
	defer b.Close()

	srv := httptest.NewServer(&broker.HTTPHandler{Broker: b})
	defer srv.Close()
	client := &broker.HTTPClient{BaseURL: srv.URL}

	// 100 good shotgun-read files plus one poison file that can never
	// parse, let alone assemble.
	const good = 100
	files := make(map[string][]byte, good+1)
	for i := 0; i < good; i++ {
		doc, err := workload.Cap3File(int64(i+1), 60, 1500)
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("region%03d.fsa", i)] = doc
	}
	files["poison.fsa"] = []byte("BROKEN: not a FASTA document\n")

	st, err := client.Submit(broker.JobRequest{
		App:           "cap3",
		Files:         files,
		InjectCrashes: 2, // two worker deaths after executing, before acking
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != good+1 {
		t.Fatalf("submitted %d tasks, want %d", st.Total, good+1)
	}

	// Let the fleet grow, then reclaim one instance mid-run like a
	// spot market would.
	time.Sleep(60 * time.Millisecond)
	if err := client.Preempt(st.ID); err != nil {
		t.Fatalf("preempt: %v", err)
	}

	final, err := client.WaitForCompletion(st.ID, 60*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("job did not complete: %v (status %+v)", err, final)
	}

	// Every non-poison task completed despite the crash and the
	// preemption; the poison task is dead, not lost.
	if final.Done != good {
		t.Errorf("done = %d, want %d", final.Done, good)
	}
	if final.Dead != 1 {
		t.Errorf("dead = %d, want 1", final.Dead)
	}
	if final.Fleet != 0 {
		t.Errorf("fleet = %d after completion, want 0", final.Fleet)
	}
	dl, err := client.DeadLetters(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(dl) != 1 || dl[0] != "poison.fsa" {
		t.Errorf("dead letters = %v, want [poison.fsa]", dl)
	}
	// The poison message is parked on the job's dead-letter queue for
	// inspection.
	visible, inflight, err := env.Queue.ApproximateCount(st.ID + "/dead")
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight < 1 {
		t.Error("dead-letter queue is empty")
	}

	// The pool scaled up from the single-floor fleet and back down to
	// zero, with the preemption on record.
	evs, err := client.Events(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	peak, preempts, stops := 0, 0, 0
	for _, ev := range evs {
		if ev.Fleet > peak {
			peak = ev.Fleet
		}
		switch ev.Action {
		case "preempt":
			preempts++
		case "stop":
			stops++
		}
	}
	if peak < 3 {
		t.Errorf("peak fleet = %d, want ≥ 3 (scale-up never happened)", peak)
	}
	if stops == 0 {
		t.Error("no scale-down events")
	}
	if preempts != 1 {
		t.Errorf("preempt events = %d, want 1", preempts)
	}
	if last := evs[len(evs)-1]; last.Fleet != 0 {
		t.Errorf("final event fleet = %d, want 0", last.Fleet)
	}

	// Elastic billing beats holding the max-size fleet for the whole
	// job, in the paper's hour-unit convention.
	cost, err := client.Cost(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cost.HourUnits >= cost.FixedHourUnits {
		t.Errorf("elastic %v hour units ≥ fixed fleet %v", cost.HourUnits, cost.FixedHourUnits)
	}
	if cost.ComputeCost >= cost.FixedComputeCost {
		t.Errorf("elastic $%.2f ≥ fixed $%.2f", cost.ComputeCost, cost.FixedComputeCost)
	}
	if cost.Preemptions != 1 {
		t.Errorf("billed preemptions = %d, want 1", cost.Preemptions)
	}

	// Outputs for all completed tasks are collectable over the API.
	outs, err := client.Outputs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != good {
		t.Errorf("collected %d outputs, want %d", len(outs), good)
	}
}
