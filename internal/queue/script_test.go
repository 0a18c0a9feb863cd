package queue

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blob"
)

// scriptRun drives one durable primary and a follower of its journal
// through a random op script under a FakeClock. Errors the contract
// allows (no such queue, queue exists, stale receipt) are part of the
// script; anything else fails the test.
type scriptRun struct {
	t   *testing.T
	rng *rand.Rand
	clk *FakeClock
	p   *Service
	f   *Follower
	// receipts holds every handle a receive ever returned, per queue —
	// most of them stale by the time they are drawn again.
	receipts map[string][]string
	// repeats counts batches that delivered one message more than once.
	repeats int
}

var scriptQueues = []string{"a", "b", "c"}

func (r *scriptRun) ok(err error) {
	r.t.Helper()
	if err != nil && !errors.Is(err, ErrNoSuchQueue) && !errors.Is(err, ErrQueueExists) && !errors.Is(err, ErrStaleReceipt) {
		r.t.Fatal(err)
	}
}

func (r *scriptRun) bodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("body-%d", r.rng.Intn(1000)))
	}
	return out
}

// receipt draws a handle for q: usually a recent one (often still
// live), sometimes any one a receive ever returned, sometimes one that
// never existed.
func (r *scriptRun) receipt(q string) string {
	hs := r.receipts[q]
	switch n := r.rng.Intn(8); {
	case len(hs) == 0 || n == 0:
		return q + "-0#r9"
	case n < 6 && len(hs) > MaxBatch:
		hs = hs[len(hs)-MaxBatch:]
	}
	return hs[r.rng.Intn(len(hs))]
}

func (r *scriptRun) receive(q string) {
	// Short leases lapse at the next clock step, long ones outlive the script.
	vis := []time.Duration{3 * time.Second, 20 * time.Second, time.Hour}[r.rng.Intn(3)]
	msgs, err := r.p.ReceiveMessageBatch(q, vis+time.Duration(r.rng.Intn(1000)), 1+r.rng.Intn(MaxBatch), 0)
	r.ok(err)
	seen := make(map[string]bool)
	last := make(map[string]int)
	for _, m := range msgs {
		if seen[m.ReceiptHandle] {
			r.t.Fatalf("batch repeats receipt %q: %+v", m.ReceiptHandle, msgs)
		}
		seen[m.ReceiptHandle] = true
		if n, again := last[m.ID]; again {
			r.repeats++
			if m.Receives <= n {
				r.t.Fatalf("message %s delivered twice in one batch with Receives %d then %d", m.ID, n, m.Receives)
			}
		}
		last[m.ID] = m.Receives
		r.receipts[q] = append(r.receipts[q], m.ReceiptHandle)
	}
}

func (r *scriptRun) step() {
	q := scriptQueues[r.rng.Intn(len(scriptQueues))]
	switch r.rng.Intn(20) {
	case 0:
		r.ok(r.p.CreateQueue(q))
	case 1:
		if r.rng.Intn(3) == 0 {
			r.ok(r.p.DeleteQueue(q))
			break
		}
		r.ok(r.p.CreateQueue(q))
	case 2, 3:
		_, err := r.p.SendMessage(q, r.bodies(1)[0])
		r.ok(err)
	case 4, 5:
		_, err := r.p.SendMessageBatch(q, r.bodies(1+r.rng.Intn(MaxBatch)))
		r.ok(err)
	case 6:
		items := make([]TransferItem, 1+r.rng.Intn(3))
		for i, b := range r.bodies(len(items)) {
			items[i] = TransferItem{Body: b, Receives: r.rng.Intn(4)}
		}
		_, err := r.p.TransferInBatch(q, items)
		r.ok(err)
	case 7, 8, 9:
		r.receive(q)
	case 10:
		// Time passes between receives: leases lapse, several at once and
		// one by one, seen by the next receive, count or visibility change.
		r.clk.Advance(time.Duration(1+r.rng.Intn(8)) * time.Second)
		r.receive(q)
	case 11:
		r.clk.Advance(time.Duration(r.rng.Intn(3000)) * time.Millisecond)
	case 12:
		_, _, err := r.p.ApproximateCount(q) // releases lapsed leases, journals nothing
		r.ok(err)
	case 13, 14:
		r.ok(r.p.DeleteMessage(q, r.receipt(q)))
	case 15:
		hs := make([]string, 1+r.rng.Intn(MaxBatch))
		for i := range hs {
			hs[i] = r.receipt(q)
			if i > 0 && r.rng.Intn(4) == 0 {
				hs[i] = hs[r.rng.Intn(i)] // a receipt repeated within the batch
			}
		}
		verdicts, err := r.p.DeleteMessageBatch(q, hs)
		r.ok(err)
		deleted := make(map[string]bool)
		for i, v := range verdicts {
			if v == nil && deleted[hs[i]] {
				r.t.Fatalf("batch delete accepted receipt %q twice: %v", hs[i], hs)
			}
			deleted[hs[i]] = v == nil
		}
	case 16, 17:
		d := []time.Duration{0, time.Second, 45 * time.Second, 2 * time.Hour}[r.rng.Intn(4)]
		r.ok(r.p.ChangeVisibility(q, r.receipt(q), d))
	case 18:
		if r.rng.Intn(4) == 0 {
			r.ok(r.p.Purge(q))
		}
	case 19:
		if _, err := r.f.CatchUp(); err != nil { // the follower folds part live, part at promotion
			r.t.Fatal(err)
		}
	}
}

// observed is a service's state as of the clock's current instant:
// looking at each queue (ApproximateCount) releases the leases that have
// lapsed by now, which a live service may or may not have done already.
func observed(t *testing.T, s *Service) map[string][]msgState {
	t.Helper()
	for _, q := range s.ListQueues() {
		if _, _, err := s.ApproximateCount(q); err != nil {
			t.Fatal(err)
		}
	}
	return stateOf(s)
}

// The live commit is the journal fold: after any script of operations —
// with leases lapsing in between, duplicate deliveries, stale and
// repeated receipts, and journal compaction — the primary, a follower
// promoted from its journal and a fresh service recovered from it hold
// the same state: ids, bodies, receipts, receive counts, lease expiries,
// and the order messages will be delivered in.
func TestLiveStateEqualsJournalFold(t *testing.T) {
	const scripts, ops = 50, 150 // per configuration; four configurations
	for _, dupProb := range []float64{0, 0.3} {
		for _, snapEvery := range []int{-1, 7} {
			t.Run(fmt.Sprintf("dup=%v/snap=%d", dupProb, snapEvery), func(t *testing.T) {
				repeats := 0
				for seed := int64(1); seed <= scripts; seed++ {
					store := blob.NewStore(blob.Config{})
					clk := NewFakeClock(time.Unix(1_700_000_000, 123_456_789))
					cfg := durConfig(store, clk, "shard-0")
					cfg.Seed = seed
					cfg.DuplicateProb = dupProb
					cfg.Durability.SnapshotEvery = snapEvery
					p := NewService(cfg)
					if err := p.Recover(); err != nil {
						t.Fatal(err)
					}
					f, err := NewFollower(cfg)
					if err != nil {
						t.Fatal(err)
					}
					run := &scriptRun{t: t, rng: rand.New(rand.NewSource(seed)), clk: clk, p: p, f: f, receipts: make(map[string][]string)}
					run.ok(p.CreateQueue("a"))
					run.ok(p.CreateQueue("b"))
					for i := 0; i < ops; i++ {
						run.step()
					}
					repeats += run.repeats

					want := observed(t, p)
					p.Halt()
					recovered := NewService(cfg)
					if err := recovered.Recover(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					promoted, err := f.Promote()
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					for name, s := range map[string]*Service{"Recover": recovered, "Promote": promoted} {
						if got := observed(t, s); !equalStates(got, want) {
							t.Fatalf("seed %d: %s state differs from the primary's:\n got %+v\nwant %+v", seed, name, got, want)
						}
					}
				}
				if (repeats > 0) != (dupProb > 0) {
					t.Errorf("%d batches delivered a message twice with DuplicateProb %v", repeats, dupProb)
				}
			})
		}
	}
}

// The journal a fixed script writes is byte-for-byte the journal it
// wrote when the layout last changed, the hash being computed then:
// receive records stopped carrying receipts, which the fold computes, and
// ids came from one sequence per service instead of one per queue. The
// layout before that had held since before the plan → journal → apply
// refactor. The script touches every record kind, duplicate deliveries, a
// redelivery after a lapsed lease, and stale and repeated receipts.
func TestGoldenJournalBytes(t *testing.T) {
	const golden = "fd5255d944a06f72f23c864ebe730e153a847daed3f1dfd0f34f8c30e045ae52"
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1_700_000_000, 123_456_789))
	cfg := durConfig(store, clk, "golden")
	cfg.Seed = 3
	cfg.DuplicateProb = 0.3
	cfg.Durability.SnapshotEvery = -1
	s := NewService(cfg)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Recover())
	must(s.CreateQueue("q"))
	must(s.CreateQueue("gone"))
	_, err := s.SendMessageBatch("q", [][]byte{[]byte("plain"), {}, []byte("\n"), []byte("!{\"seq\":3}\n"), {0x01, 0x00}})
	must(err)
	_, err = s.TransferInBatch("q", []TransferItem{{Body: []byte("moved"), Receives: 4}, {Body: []byte("fresh")}})
	must(err)
	_, err = s.SendMessage("gone", []byte("x"))
	must(err)
	// latest is each message's newest receipt — the only one that counts.
	latest := make(map[string]string)
	var order []string
	receive := func(vis time.Duration, max int) []Message {
		t.Helper()
		msgs, err := s.ReceiveMessageBatch("q", vis, max, 0)
		must(err)
		for _, m := range msgs {
			if _, seen := latest[m.ID]; !seen {
				order = append(order, m.ID)
			}
			latest[m.ID] = m.ReceiptHandle
		}
		return msgs
	}
	clk.Advance(1500 * time.Microsecond)
	first := receive(90*time.Second+7*time.Nanosecond, MaxBatch)
	if len(first) == len(order) || len(order) < 4 {
		t.Fatalf("fixture: %d deliveries of %d messages; the script wants a duplicate delivery and four messages", len(first), len(order))
	}
	must(s.DeleteMessage("q", latest[order[0]]))
	clk.Advance(time.Nanosecond)
	must(s.ChangeVisibility("q", latest[order[1]], 10*time.Second+3*time.Nanosecond))
	clk.Advance(11 * time.Second) // exactly one lease lapses
	receive(time.Minute, 2)
	verdicts, err := s.DeleteMessageBatch("q", []string{latest[order[2]], latest[order[2]], first[0].ReceiptHandle, "q-0#r9"})
	must(err)
	if verdicts[0] != nil || verdicts[1] == nil || verdicts[3] == nil {
		t.Fatalf("fixture: batch delete verdicts %v", verdicts)
	}
	must(s.ChangeVisibility("q", latest[order[3]], 0))
	must(s.DeleteQueue("gone"))
	must(s.CreateQueue("purged"))
	_, err = s.SendMessage("purged", []byte("y"))
	must(err)
	must(s.Purge("purged"))
	for i := 0; i < 4; i++ {
		_, err = s.SendMessage("q", []byte(fmt.Sprintf("late-%d", i)))
		must(err)
	}
	receive(time.Hour, 1)

	doc, err := store.GetConsistent("queue-journal", "golden")
	must(err)
	if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != golden {
		t.Errorf("journal is %d bytes with sha256 %s, want %s", len(doc), got, golden)
	}
}

// Expiry is not journaled, so where lapsed leases land must not depend on
// when a service looked. Here the primary releases four leases that
// lapse at the same instant as soon as they do (ApproximateCount), while
// a fold of its journal still holds them when the next delete reshuffles
// its heap, and releases them only at the next record that carries a
// time. Both must hand them back in the same order — which is why the
// in-flight heap breaks ties by id rather than by its own layout.
func TestLapsedLeasesLandWhereTheJournalSays(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	cfg := durConfig(store, clk, "shard-0")
	p := NewService(cfg)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Recover())
	must(p.CreateQueue("q"))
	_, err := p.SendMessageBatch("q", [][]byte{{1}, {2}, {3}, {4}, {5}, {6}})
	must(err)
	msgs, err := p.ReceiveMessageBatch("q", 3*time.Second, 6, 0)
	must(err)
	must(p.ChangeVisibility("q", msgs[0].ReceiptHandle, time.Hour))
	must(p.ChangeVisibility("q", msgs[5].ReceiptHandle, time.Hour))
	clk.Advance(4 * time.Second)
	_, _, err = p.ApproximateCount("q") // the primary releases msgs[1:5] now
	must(err)
	must(p.DeleteMessage("q", msgs[0].ReceiptHandle))
	again, err := p.ReceiveMessageBatch("q", time.Hour, 1, 0) // a fold releases them here
	must(err)
	want := observed(t, p)
	p.Halt()
	r := NewService(cfg)
	must(r.Recover())
	got := observed(t, r)
	if !equalStates(got, want) {
		t.Fatalf("recovered state differs from the primary's:\n got %+v\nwant %+v", got, want)
	}
	// The four lapsed leases (msgs[1:5]) came back in arrival order; the
	// receive leased one of them a second time, so on both sides it is in
	// flight beside the hour-long lease of msgs[5], and the three left
	// visible are the other three, still in that order.
	lapsed := make(map[string]bool)
	for _, m := range msgs[1:5] {
		lapsed[m.ID] = true
	}
	if len(again) != 1 || !lapsed[again[0].ID] || again[0].Receives != 2 {
		t.Fatalf("the receive after the lapse took %+v, want one of %v on its second delivery", again, lapsed)
	}
	for side, st := range map[string]map[string][]msgState{"primary": want, "recovered": got} {
		q := st["q"]
		if len(q) != 5 || q[2].Inflight || !(q[0].ID < q[1].ID && q[1].ID < q[2].ID) {
			t.Errorf("%s: a batch whose leases lapsed together is not back in arrival order: %+v", side, q)
			continue
		}
		for _, v := range q[:3] {
			if !lapsed[v.ID] || v.ID == again[0].ID {
				t.Errorf("%s: %s is visible, want the lapsed leases but %s: %+v", side, v.ID, again[0].ID, q)
			}
		}
		inflight := map[string]bool{q[3].ID: q[3].Inflight, q[4].ID: q[4].Inflight}
		if !inflight[again[0].ID] || !inflight[msgs[5].ID] {
			t.Errorf("%s: in flight %v, want %s and %s", side, q[3:], again[0].ID, msgs[5].ID)
		}
	}
}
