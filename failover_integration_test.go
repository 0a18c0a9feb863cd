// End-to-end kill-and-failover test for durable, replicated queue
// shards: a broker job with a poison task runs through a 4-shard
// router where every shard journals write-ahead and carries a warm
// follower registered as its standby. The shard owning the job's
// queues is killed mid-job (Halt — the in-memory state vanishes from
// the router's point of view), the health loop promotes the follower,
// and the job must finish with zero message loss: every good task
// settles exactly once, and the poison task dead-letters after exactly
// MaxReceives total receives because the journal preserved its
// delivery count across the crash.
//
// Against a non-durable shard this scenario is unrecoverable — the
// backlog, the in-flight leases, and the poison message's receive
// count all die with the process. Against a durable-but-count-naive
// recovery (re-sending bodies) the poison task would execute
// MaxReceives extra times, which the exact poisonRuns assertion
// catches.
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
	"repro/internal/journal"
	"repro/internal/queue"
	"repro/internal/queue/shard"
)

func TestJobSurvivesShardKillAndFailover(t *testing.T) {
	const snapEvery = 16
	journalStore := blob.NewStore(blob.Config{})
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	primaries := make(map[string]*queue.Service)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		cfg := queue.Config{
			Seed: int64(i + 1),
			Durability: &queue.Durability{
				Store:         journalStore,
				Bucket:        "shard-journal",
				Key:           "shard-" + id,
				SnapshotEvery: snapEvery,
			},
		}
		svc := queue.NewService(cfg)
		if err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		if err := router.AddShard(id, svc); err != nil {
			t.Fatal(err)
		}
		primaries[id] = svc
		follower, err := queue.NewFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		follower.Start(2 * time.Millisecond)
		if err := router.SetStandby(id, follower.PromoteAPI); err != nil {
			t.Fatal(err)
		}
	}
	router.StartHealthChecks(2 * time.Millisecond)
	env := classiccloud.Env{Blob: blob.NewStore(blob.Config{}), Queue: router}

	// A custom executor so the test can observe every poison execution:
	// the count the crash must not reset IS the number of times workers
	// run the poison input.
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

	// Placement groups co-locate the job's queues, so one shard kill
	// takes out the whole job's queue state at once — the worst case.
	owners := router.Owners()
	if owners[taskQ] == "" || owners[taskQ] != owners[monQ] || owners[taskQ] != owners[dlq] {
		t.Fatalf("job queues not co-located: tasks=%s monitor=%s dead=%s",
			owners[taskQ], owners[monQ], owners[dlq])
	}
	owner := owners[taskQ]

	// Wait for the poison task's first failed execution, so the message
	// carries delivery-count progress the crash could destroy.
	deadline := time.Now().Add(30 * time.Second)
	for poisonRuns.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("poison task never executed: %+v", j.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The kill must interrupt real work: messages still on the queue.
	visible, inflight, err := router.ApproximateCount(taskQ)
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight == 0 {
		t.Fatal("task queue already drained; the kill would interrupt nothing")
	}

	// Kill the owner. Halt severs the in-memory state exactly like a
	// process death: every call fails, blocked long polls wake, nothing
	// is flushed. Only the write-ahead journal survives.
	primaries[owner].Halt()
	for router.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("health loop never failed over shard %s", owner)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatalf("job did not complete across the shard kill: %v", err)
	}
	st := j.Status()
	if st.Done != good || st.Dead != 1 {
		t.Fatalf("done=%d dead=%d, want %d/1 — the failover lost settlements", st.Done, st.Dead, good)
	}
	if dl := j.DeadLetters(); len(dl) != 1 || dl[0] != "poison.txt" {
		t.Errorf("DeadLetters = %v, want [poison.txt]", dl)
	}
	// The heart of the test: dead-lettering consumed exactly the retry
	// budget. A recovery that reset delivery counts makes this larger.
	if got := poisonRuns.Load(); got != maxReceives {
		t.Errorf("poison task executed %d times, want exactly MaxReceives=%d — the failover lost receive-count progress",
			got, maxReceives)
	}
	// The poison body is parked on the dead-letter queue, served by the
	// promoted follower under the original shard id.
	visible, inflight, err = router.ApproximateCount(dlq)
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight < 1 {
		t.Error("dead-letter queue is empty after the failover")
	}

	// Compaction kept replay bounded through the whole job: the owner
	// shard's journal was snapshotted at least once (the promoted
	// follower continues the cadence), and the live tail stays within a
	// small multiple of SnapshotEvery.
	jl := journal.Log{Store: journalStore, Bucket: "shard-journal", Key: "shard-" + owner}
	v, err := jl.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq < 1 {
		t.Errorf("owner journal was never compacted (epoch %d)", v.Seq)
	}
	if len(v.Entries) >= 4*snapEvery {
		t.Errorf("journal tail holds %d records, want < %d — compaction is not bounding replay",
			len(v.Entries), 4*snapEvery)
	}
}
