// Integration: a broker job runs unmodified against a 4-shard router —
// the consumers' acceptance criterion for the sharded queue front. The
// job's task, monitor, and dead-letter queues land on whichever shards
// the ring picks, workers lease and acknowledge through wrapped
// receipts, and a fifth shard joining mid-job migrates live queues
// without the broker noticing.
package shard_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/workload"
)

func TestBrokerJobThroughShardedQueue(t *testing.T) {
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	for i := 0; i < 4; i++ {
		if err := router.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: router,
	}
	b := broker.New(broker.Config{
		Env:                env,
		WorkersPerInstance: 2,
		VisibilityTimeout:  600 * time.Millisecond,
		TickInterval:       15 * time.Millisecond,
		Autoscale: broker.AutoscalePolicy{
			MinInstances:       1,
			MaxInstances:       4,
			BacklogPerInstance: 16,
			ScaleDownCooldown:  60 * time.Millisecond,
		},
	})
	defer b.Close()

	const tasks = 48
	files := make(map[string][]byte, tasks)
	for i := 0; i < tasks; i++ {
		doc, err := workload.Cap3File(int64(i+1), 40, 1200)
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("region%03d.fsa", i)] = doc
	}
	j, err := b.Submit(broker.JobRequest{App: "cap3", Files: files})
	if err != nil {
		t.Fatal(err)
	}

	// Grow the ring while workers hold live leases: task/monitor queues
	// may migrate mid-job and everything must still complete.
	time.Sleep(50 * time.Millisecond)
	if err := router.AddShard("s4", queue.NewService(queue.Config{Seed: 5})); err != nil {
		t.Fatal(err)
	}

	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatalf("job did not complete through the sharded queue: %v", err)
	}
	st := j.Status()
	if st.Done != tasks || st.Dead != 0 {
		t.Fatalf("done=%d dead=%d, want %d/0", st.Done, st.Dead, tasks)
	}
	// Billing attribution still works per queue through the router.
	cr := j.CostReport()
	if cr.QueueRequests <= 0 {
		t.Errorf("cost report billed %d queue requests through the router", cr.QueueRequests)
	}
}
