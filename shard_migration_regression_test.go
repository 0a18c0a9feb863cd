// End-to-end regression tests for count-preserving queue migration: a
// broker job with a poison task runs through a 4-shard router, the
// topology changes mid-job — the ring grows in one test, the job's
// placement group is split across sub-arcs in the other — and the
// poison task must still dead-letter after exactly MaxReceives total
// receives.
//
// Against the pre-transfer migration — drain-and-forward re-sending
// through the public API — this test fails: the re-send resets the
// poison message's delivery count, so the task executes MaxReceives
// extra times after the rebalance before dead-lettering. (Verified by
// stubbing shard.transferBatch back to SendMessageBatch.)
package repro

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/queue/shard"
)

// shardStealingGroup finds a shard id that, added as the fifth member
// of an s0..s3 ring, takes ownership of the given placement group. The
// ring is deterministic, so a scratch router's answer is authoritative
// for the real one — this is what makes the mid-job rebalance hit the
// job's queues every run instead of 1-in-5 runs.
func shardStealingGroup(t *testing.T, group string) string {
	t.Helper()
	for c := 0; c < 64; c++ {
		cand := fmt.Sprintf("m%d", c)
		scratch := shard.NewRouter(shard.Config{})
		for i := 0; i < 4; i++ {
			if err := scratch.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{})); err != nil {
				t.Fatal(err)
			}
		}
		if err := scratch.AddShard(cand, queue.NewService(queue.Config{})); err != nil {
			t.Fatal(err)
		}
		probe := group + "/probe"
		if err := scratch.CreateQueue(probe); err != nil {
			t.Fatal(err)
		}
		owner := scratch.Owners()[probe]
		scratch.Close()
		if owner == cand {
			return cand
		}
	}
	t.Fatal("no candidate shard id steals the group")
	return ""
}

func TestPoisonTaskSurvivesShardRebalance(t *testing.T) {
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	for i := 0; i < 4; i++ {
		if err := router.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	env := classiccloud.Env{Blob: blob.NewStore(blob.Config{}), Queue: router}

	// A custom executor so the test can observe every poison execution:
	// the count the migration must not reset IS the number of times
	// workers run the poison input.
	var poisonRuns atomic.Int64
	reg := broker.DefaultRegistry()
	reg["flaky"] = func(map[string][]byte) (classiccloud.Executor, error) {
		return classiccloud.FuncExecutor{
			AppName: "flaky",
			Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
				if bytes.HasPrefix(input, []byte("POISON")) {
					poisonRuns.Add(1)
					return nil, errors.New("poison input")
				}
				return input, nil
			},
		}, nil
	}

	const maxReceives = 4
	b := broker.New(broker.Config{
		Env:                env,
		Registry:           reg,
		WorkersPerInstance: 2,
		VisibilityTimeout:  400 * time.Millisecond,
		MaxReceives:        maxReceives,
		TickInterval:       15 * time.Millisecond,
		Autoscale: broker.AutoscalePolicy{
			MinInstances:       1,
			MaxInstances:       2,
			BacklogPerInstance: 16,
		},
	})
	defer b.Close()

	const good = 12
	files := map[string][]byte{"poison.txt": []byte("POISON\n")}
	for i := 0; i < good; i++ {
		files[fmt.Sprintf("good%02d.txt", i)] = []byte(fmt.Sprintf("payload %d\n", i))
	}
	j, err := b.Submit(broker.JobRequest{App: "flaky", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	ccCfg := classiccloud.Config{JobName: j.ID}
	taskQ, monQ, dlq := ccCfg.TaskQueue(), ccCfg.MonitorQueue(), j.ID+"/dead"

	// Placement groups at work: all three job queues share one shard.
	owners := router.Owners()
	if owners[taskQ] == "" || owners[taskQ] != owners[monQ] || owners[taskQ] != owners[dlq] {
		t.Fatalf("job queues not co-located: tasks=%s monitor=%s dead=%s",
			owners[taskQ], owners[monQ], owners[dlq])
	}

	// Wait for the poison task's first failed execution, so its message
	// carries delivery-count progress the rebalance could destroy.
	deadline := time.Now().Add(30 * time.Second)
	for poisonRuns.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("poison task never executed: %+v", j.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Grow the ring with a shard chosen to own the job's group: the
	// job's queues — poison progress included — migrate mid-job.
	steal := shardStealingGroup(t, j.ID)
	if err := router.AddShard(steal, queue.NewService(queue.Config{Seed: 99})); err != nil {
		t.Fatal(err)
	}
	owners = router.Owners()
	if owners[taskQ] != steal || owners[monQ] != steal || owners[dlq] != steal {
		t.Fatalf("rebalance did not move the job's group to %s: tasks=%s monitor=%s dead=%s",
			steal, owners[taskQ], owners[monQ], owners[dlq])
	}

	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatalf("job did not complete across the rebalance: %v", err)
	}
	st := j.Status()
	if st.Done != good || st.Dead != 1 {
		t.Fatalf("done=%d dead=%d, want %d/1", st.Done, st.Dead, good)
	}
	if dl := j.DeadLetters(); len(dl) != 1 || dl[0] != "poison.txt" {
		t.Errorf("DeadLetters = %v, want [poison.txt]", dl)
	}
	// The heart of the test: dead-lettering consumed exactly the retry
	// budget. A count-resetting migration makes this number larger.
	if got := poisonRuns.Load(); got != maxReceives {
		t.Errorf("poison task executed %d times, want exactly MaxReceives=%d — the rebalance lost receive-count progress",
			got, maxReceives)
	}
	// The poison body is parked on the job's dead-letter queue, on the
	// new shard.
	visible, inflight, err := router.ApproximateCount(dlq)
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight < 1 {
		t.Error("dead-letter queue is empty after the rebalance")
	}
}

// TestPoisonTaskSurvivesHotGroupSplit is the same contract under the
// other topology change: instead of the ring growing, the job's
// placement group is SPLIT across sub-arcs mid-job — the load-relief
// path a hot group takes — and the poison task must still dead-letter
// after exactly MaxReceives total receives. The split migrates the
// task queue through the same count-preserving transfer, so a split
// that re-sent messages through the public API would fail this test
// the same way a count-resetting rebalance fails the one above.
func TestPoisonTaskSurvivesHotGroupSplit(t *testing.T) {
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	for i := 0; i < 4; i++ {
		if err := router.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	env := classiccloud.Env{Blob: blob.NewStore(blob.Config{}), Queue: router}

	var poisonRuns atomic.Int64
	reg := broker.DefaultRegistry()
	reg["flaky"] = func(map[string][]byte) (classiccloud.Executor, error) {
		return classiccloud.FuncExecutor{
			AppName: "flaky",
			Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
				if bytes.HasPrefix(input, []byte("POISON")) {
					poisonRuns.Add(1)
					return nil, errors.New("poison input")
				}
				return input, nil
			},
		}, nil
	}

	const maxReceives = 4
	b := broker.New(broker.Config{
		Env:                env,
		Registry:           reg,
		WorkersPerInstance: 2,
		VisibilityTimeout:  400 * time.Millisecond,
		MaxReceives:        maxReceives,
		TickInterval:       15 * time.Millisecond,
		Autoscale: broker.AutoscalePolicy{
			MinInstances:       1,
			MaxInstances:       2,
			BacklogPerInstance: 16,
		},
	})
	defer b.Close()

	const good = 12
	files := map[string][]byte{"poison.txt": []byte("POISON\n")}
	for i := 0; i < good; i++ {
		files[fmt.Sprintf("good%02d.txt", i)] = []byte(fmt.Sprintf("payload %d\n", i))
	}
	j, err := b.Submit(broker.JobRequest{App: "flaky", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	ccCfg := classiccloud.Config{JobName: j.ID}
	taskQ, monQ, dlq := ccCfg.TaskQueue(), ccCfg.MonitorQueue(), j.ID+"/dead"

	// Wait for the poison task's first failed execution, so its message
	// carries delivery-count progress the split could destroy.
	deadline := time.Now().Add(30 * time.Second)
	for poisonRuns.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("poison task never executed: %+v", j.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Split the job's group mid-job, widening the fan-out until the task
	// queue actually re-homes onto another sub-arc (sub-arc assignment
	// hashes the queue name, so the first k that maps the task queue off
	// sub-arc 0 moves it — guaranteed onto a DIFFERENT shard by the
	// distinct-successor walk).
	before := router.Owners()[taskQ]
	moved := false
	for _, k := range []int{2, 4, 8, 16, 32} {
		if err := router.SplitGroup(j.ID, k); err != nil {
			t.Fatalf("split to %d: %v", k, err)
		}
		if router.Owners()[taskQ] != before {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("task queue %s never left %s across widening splits", taskQ, before)
	}

	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatalf("job did not complete across the split: %v", err)
	}
	st := j.Status()
	if st.Done != good || st.Dead != 1 {
		t.Fatalf("done=%d dead=%d, want %d/1", st.Done, st.Dead, good)
	}
	if dl := j.DeadLetters(); len(dl) != 1 || dl[0] != "poison.txt" {
		t.Errorf("DeadLetters = %v, want [poison.txt]", dl)
	}
	// The heart of the test: dead-lettering consumed exactly the retry
	// budget despite the mid-job split.
	if got := poisonRuns.Load(); got != maxReceives {
		t.Errorf("poison task executed %d times, want exactly MaxReceives=%d — the split lost receive-count progress",
			got, maxReceives)
	}

	// Merge back: the group re-co-locates and the parked poison body
	// survives the return migration too.
	if err := router.MergeGroup(j.ID); err != nil {
		t.Fatalf("merge: %v", err)
	}
	owners := router.Owners()
	if owners[taskQ] == "" || owners[taskQ] != owners[monQ] || owners[taskQ] != owners[dlq] {
		t.Fatalf("job queues not re-co-located after merge: tasks=%s monitor=%s dead=%s",
			owners[taskQ], owners[monQ], owners[dlq])
	}
	visible, inflight, err := router.ApproximateCount(dlq)
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight < 1 {
		t.Error("dead-letter queue is empty after split and merge")
	}
}
