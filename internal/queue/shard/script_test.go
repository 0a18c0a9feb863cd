package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/queue"
)

// scriptModel is the naive reference the router scripts are checked
// against: what a queue tier owes its consumers, written without shards.
// A body is unique; it is owed to its queue until deleted, and every
// delivery of it reports one more receive than the last.
type scriptModel struct {
	sent     []string          // every body, in send order
	queueOf  map[string]string // body → queue
	receives map[string]int    // body → consumer deliveries so far
	deleted  map[string]bool
}

func (m *scriptModel) send(q, body string) {
	m.sent = append(m.sent, body)
	m.queueOf[body] = q
}

// live counts the bodies a queue still owes.
func (m *scriptModel) live(q string) int {
	n := 0
	for _, body := range m.sent {
		if m.queueOf[body] == q && !m.deleted[body] {
			n++
		}
	}
	return n
}

// deliver checks one delivery against the model and counts it.
func (m *scriptModel) deliver(q string, msg queue.Message) error {
	body := string(msg.Body)
	switch {
	case m.queueOf[body] != q:
		return fmt.Errorf("%s delivered %q, which belongs to %q", q, body, m.queueOf[body])
	case m.deleted[body]:
		return fmt.Errorf("%s delivered %q after its delete was acknowledged", q, body)
	case msg.Receives != m.receives[body]+1:
		return fmt.Errorf("%q delivered with Receives = %d, want %d", body, msg.Receives, m.receives[body]+1)
	}
	m.receives[body]++
	return nil
}

// TestRouterScriptsKeepEveryMessage drives seeded single-goroutine
// scripts — sends, receive+delete, receive+release, and every topology
// operation — through a router over 2–4 in-process shards, beside the
// model above. A consumer settles each message in the step that received
// it, and the shards share a clock that never advances, so no lease
// expires and nothing is ever left for a forwarder (ForwardInterval is an
// hour: none gets to poll): every outcome is a function of the seed.
//
// Checked at every step: a receive finds a message exactly when the
// model says the queue owes one — right after any move, with no help
// from a forwarder; the delivery count carries over every move; a spent
// receipt is never honoured again. Checked at the end, after a final
// Rebalance: placement equals the ring's, and a full drain yields exactly
// sent − deleted, each body once.
func TestRouterScriptsKeepEveryMessage(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRouterScript(t, seed, 160) })
	}
}

func runRouterScript(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	clock := queue.NewFakeClock(time.Unix(1_000_000, 0))
	r := NewRouter(Config{ForwardInterval: time.Hour})
	defer r.Close()
	shards := 0
	addShard := func() {
		id := fmt.Sprintf("s%d", shards) // never reused: retired ids stay registered
		shards++
		if err := r.AddShard(id, queue.NewService(queue.Config{Seed: seed + int64(shards), Clock: clock})); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
	}
	for i := 2 + rng.Intn(3); i > 0; i-- {
		addShard()
	}
	queues := []string{"job/tasks", "job/monitor", "job/dead", "job/extra", "solo", "other/x"}
	groups := []string{"", "job", "flock-0", "flock-1", "flock-2"}
	for _, q := range queues {
		if err := r.CreateQueue(q); err != nil {
			t.Fatal(err)
		}
	}
	m := &scriptModel{queueOf: map[string]string{}, receives: map[string]int{}, deleted: map[string]bool{}}
	pinned := map[string]bool{}
	type spentReceipt struct{ queue, receipt string }
	var spent []spentReceipt

	// receive takes one delivery of q and checks it; ok mirrors the model.
	receive := func(step int, q string) (queue.Message, bool) {
		msg, ok, err := r.ReceiveMessage(q, time.Hour)
		if err != nil {
			t.Fatalf("step %d: receive %s: %v", step, q, err)
		}
		if owed := m.live(q); ok != (owed > 0) {
			t.Fatalf("step %d: receive %s found a message = %v, but the model owes it %d", step, q, ok, owed)
		}
		if ok {
			if err := m.deliver(q, msg); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return msg, ok
	}
	remove := func(step int, q string, msg queue.Message) {
		if err := r.DeleteMessage(q, msg.ReceiptHandle); err != nil {
			t.Fatalf("step %d: delete %q: %v", step, msg.Body, err)
		}
		m.deleted[string(msg.Body)] = true
		spent = append(spent, spentReceipt{q, msg.ReceiptHandle})
	}

	for step := 0; step < steps; step++ {
		q := queues[rng.Intn(len(queues))]
		group := groups[1+rng.Intn(len(groups)-1)]
		var err error
		switch op := rng.Intn(100); {
		case op < 30:
			// Bursts, so a queue regularly holds more than one drain batch.
			for n := 1 + rng.Intn(8); n > 0 && err == nil; n-- {
				body := fmt.Sprintf("%s#%d", q, len(m.sent))
				if _, err = r.SendMessage(q, []byte(body)); err == nil {
					m.send(q, body)
				}
			}
		case op < 45:
			if msg, ok := receive(step, q); ok {
				remove(step, q, msg)
			}
		case op < 60:
			if msg, ok := receive(step, q); ok {
				err = r.ChangeVisibility(q, msg.ReceiptHandle, 0)
			}
		case op < 65:
			if len(spent) > 0 {
				s := spent[rng.Intn(len(spent))]
				if r.DeleteMessage(s.queue, s.receipt) == nil {
					t.Fatalf("step %d: spent receipt %s honoured a second time", step, s.receipt)
				}
			}
		case op < 70:
			if len(r.Shards()) < 4 {
				addShard()
			}
		case op < 75:
			if ids := r.Shards(); len(ids) > 2 {
				err = r.RemoveShard(ids[rng.Intn(len(ids))])
			}
		case op < 80:
			err = r.SplitGroup(group, 2+rng.Intn(3))
			if pinned[group] != errors.Is(err, ErrGroupPinned) {
				t.Fatalf("step %d: split of %s (pinned %v): %v", step, group, pinned[group], err)
			}
			if pinned[group] {
				err = nil
			}
		case op < 83:
			err = r.MergeGroup(group)
		case op < 86:
			pinned[group] = rng.Intn(2) == 0
			err = r.PinGroup(group, pinned[group])
		case op < 93:
			err = r.Regroup(q, groups[rng.Intn(len(groups))])
		case op < 96:
			_, err = r.RegroupPrefix([]string{"job/", "job/d", "so", "o"}[rng.Intn(4)], groups[rng.Intn(len(groups))])
		default:
			err = r.Rebalance()
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	if err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}
	owners := r.Owners()
	for _, q := range queues {
		_, group, _, _ := r.route(q).peek()
		r.mu.RLock()
		want, _ := r.ringOwnerLocked(group, q)
		r.mu.RUnlock()
		if owners[q] != want {
			t.Errorf("%s (group %q) on %s, its ring owner is %s", q, group, owners[q], want)
		}
	}
	// A full drain through the router yields exactly sent − deleted, each
	// body once.
	owed := map[string]bool{}
	for _, body := range m.sent {
		if !m.deleted[body] {
			owed[body] = true
		}
	}
	for _, q := range queues {
		for {
			msg, ok, err := r.ReceiveMessage(q, time.Hour)
			if err != nil {
				t.Fatalf("drain %s: %v", q, err)
			}
			if !ok {
				break
			}
			if err := m.deliver(q, msg); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if !owed[string(msg.Body)] {
				t.Fatalf("drain delivered %q twice", msg.Body)
			}
			delete(owed, string(msg.Body))
			remove(steps, q, msg)
		}
	}
	if len(owed) > 0 {
		t.Errorf("%d of %d bodies lost (e.g. %v)", len(owed), len(m.sent), owed)
	}
	for _, s := range spent {
		if r.DeleteMessage(s.queue, s.receipt) == nil {
			t.Errorf("spent receipt %s honoured after the drain", s.receipt)
		}
	}
}
