// Stress test for hot-group splitting under live traffic: producers
// and consumers hammer one placement group while the topology churns
// through split → weight change → rebalance → merge cycles. The
// at-least-once contract must hold end to end — every body consumed,
// the namespace drained to empty — with the group's queues bouncing
// between sub-arcs the whole time.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
)

func TestSplitMergeChurnUnderLoad(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	for i := 0; i < 3; i++ {
		if err := r.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	const queues, perQueue = 12, 40
	names := make([]string, queues)
	for i := range names {
		names[i] = fmt.Sprintf("churn/q%d", i)
		if err := r.CreateQueue(names[i]); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	got := make(map[string]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for _, qn := range names {
		qn := qn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, ok, err := r.ReceiveMessageWait(qn, 10*time.Second, 10*time.Millisecond)
				if err != nil {
					return // queue deleted at teardown
				}
				if ok {
					mu.Lock()
					got[string(m.Body)] = true
					mu.Unlock()
					if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil &&
						!errors.Is(err, queue.ErrStaleReceipt) {
						t.Errorf("delete on %s: %v", qn, err)
					}
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	var prod sync.WaitGroup
	for _, qn := range names {
		qn := qn
		prod.Add(1)
		go func() {
			defer prod.Done()
			for k := 0; k < perQueue; k++ {
				if _, err := r.SendMessage(qn, []byte(fmt.Sprintf("%s/m%d", qn, k))); err != nil {
					t.Errorf("send %s: %v", qn, err)
					return
				}
			}
		}()
	}

	// Topology churn while traffic flows: widen the split step by step,
	// reweight arcs (each reweigh is a change of its own and can move
	// sub-arcs), and merge back — twice over.
	for cycle := 0; cycle < 2; cycle++ {
		for _, k := range []int{2, 4, 8} {
			if err := r.SplitGroup("churn", k); err != nil {
				t.Fatalf("split to %d: %v", k, err)
			}
		}
		for i := 0; i < 3; i++ {
			w := 0.5 + float64((cycle+i)%3) // 0.5, 1.5, 2.5 rotating
			if _, err := r.reweigh(map[string]float64{fmt.Sprintf("s%d", i): w}); err != nil {
				t.Fatalf("set weight s%d: %v", i, err)
			}
		}
		if err := r.Rebalance(); err != nil {
			t.Fatalf("rebalance cycle %d: %v", cycle, err)
		}
		if err := r.MergeGroup("churn"); err != nil {
			t.Fatalf("merge cycle %d: %v", cycle, err)
		}
	}
	prod.Wait()

	// Every body must surface despite the churn.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == queues*perQueue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost messages under split/merge churn: consumed %d/%d unique bodies", n, queues*perQueue)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// After the final merge the group is whole again: co-located and
	// drained to zero everywhere (deletes landed, no straggler copies).
	if splits := r.Splits(); len(splits) != 0 {
		t.Fatalf("splits left after merges: %v", splits)
	}
	owners := r.Owners()
	for _, qn := range names[1:] {
		if owners[qn] != owners[names[0]] {
			t.Fatalf("group not co-located after merge: %s on %s, %s on %s",
				names[0], owners[names[0]], qn, owners[qn])
		}
	}
	for _, qn := range names {
		ok := false
		for start := time.Now(); time.Since(start) < 5*time.Second; {
			v, inf, err := r.ApproximateCount(qn)
			if err != nil {
				t.Fatalf("count %s: %v", qn, err)
			}
			if v == 0 && inf == 0 {
				ok = true
				break
			}
			// Residual redeliveries from at-least-once forwarding: drain.
			if m, mOk, _ := r.ReceiveMessage(qn, time.Minute); mOk {
				_ = r.DeleteMessage(qn, m.ReceiptHandle)
			}
		}
		if !ok {
			v, inf, _ := r.ApproximateCount(qn)
			t.Errorf("%s never drained: %d visible, %d in flight", qn, v, inf)
		}
	}
}
