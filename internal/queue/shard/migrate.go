package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/queue"
)

// Placement is one state machine, and this file is all of it. Three
// rules hold by construction:
//
//  1. Every topology change is Router.change(edit): edit the ring /
//     shards / splits / pins / route groups under r.mu, diff every live
//     route against the edited ring once, run the moves. The exported
//     operations are only their edit closures, so each of them also
//     retries moves an earlier change failed.
//  2. A route's owner changes only in route.thaw, which bumps the
//     route's epoch when it does. Everything that needs the owner takes
//     it from route.await, which waits out a freeze first.
//  3. A routed call that a shard answered ErrNoSuchQueue retries exactly
//     when the route is still live and its epoch moved since the call
//     was dispatched (routerView.onOwner): shard ids say nothing, a queue
//     may have moved away and back.
//
// Failover (failover.go) swaps a backend under an unchanged id and moves
// nothing; it only shares topoMu.

// change is the one topology transition. edit runs under r.mu and
// validates before it mutates: an error from it returns with nothing
// changed and nothing moved. The diff and the moves run under topoMu, so
// no second change can interleave between an edit and its migrations.
func (r *Router) change(edit func() error) error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	err := edit()
	var moves []pendingMove
	if err == nil {
		moves = r.pendingMovesLocked()
	}
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.runMoves(moves)
}

// AddShard registers a backend — a local *queue.Service or a remote
// *queue.HTTPClient — under id and rebalances: every queue whose ring
// owner changed (≈1/(N+1) of them, all onto the new shard) is migrated
// by drain-and-forward before AddShard returns. Straggler forwarding
// for messages in flight on the old owners continues in the background.
func (r *Router) AddShard(id string, backend queue.API) error {
	if id == "" || strings.Contains(id, receiptSep) {
		return ErrBadShardID
	}
	if backend == nil {
		return fmt.Errorf("shard: nil backend for %q", id)
	}
	return r.change(func() error {
		if _, ok := r.shards[id]; ok {
			// Ids are not reusable while a retired shard may still hold
			// straggler leases under the same name.
			return ErrShardExists
		}
		r.ring.add(id)
		r.shards[id] = backend
		return nil
	})
}

// RemoveShard takes a shard off the ring and migrates its queues to
// their new ring owners. The backend stays registered (retired) so
// receipts it issued keep resolving and forwarders can move its
// remaining in-flight messages as their leases expire.
func (r *Router) RemoveShard(id string) error {
	return r.change(func() error {
		if !r.ring.ids[id] {
			return ErrNoSuchShard
		}
		if len(r.ring.ids) == 1 && len(r.routes) > 0 {
			return fmt.Errorf("shard: cannot remove last shard %q while it holds queues: %w", id, ErrNoShards)
		}
		r.ring.remove(id)
		return nil
	})
}

// Rebalance re-runs every migration the current ring implies —
// queues whose route disagrees with their ring owner, e.g. after an
// AddShard whose drain hit a transient error. It is idempotent: with
// nothing pending it does nothing and returns nil.
func (r *Router) Rebalance() error {
	return r.change(func() error { return nil })
}

// reweigh rescales ring arcs (1 = a fair share of the key space; clamped
// to [1/16, 16]) and migrates what the new arcs imply in the same
// change, so a policy adjusting several weights pays one sweep. An id
// no longer on the ring has no arc and is skipped. Reports whether any
// shard's point count actually changed (false means every nudge rounded
// to the same arc).
func (r *Router) reweigh(weights map[string]float64) (changed bool, err error) {
	err = r.change(func() error {
		for id, w := range weights {
			if r.ring.setWeight(id, w) {
				changed = true
			}
		}
		return nil
	})
	return changed, err
}

// SplitGroup re-derives a placement group's queues across k sub-arcs:
// each queue is deterministically assigned one sub-arc by hashing its
// name (subgroupIndex), and sub-arc i lives on the i-th distinct ring
// successor of the group's hash, so a hot group's traffic spreads over
// min(k, shards) shards while every individual queue — and its
// receipts and in-flight messages — stays on exactly one shard. Queues
// whose sub-arc lands them elsewhere migrate through the same
// count-preserving drain-and-forward machinery topology changes use.
// k = 1 merges the group back onto its single arc (the hysteresis
// path). Idempotent: re-splitting at the current k re-runs only the
// migrations that previously failed, like Rebalance.
func (r *Router) SplitGroup(group string, k int) error {
	if group == "" || strings.Contains(group, groupSep) {
		return fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	if k < 1 || k > maxSubgroups {
		return fmt.Errorf("%w: %d", ErrBadSplit, k)
	}
	return r.change(func() error {
		if k > 1 && r.pinned[group] {
			return fmt.Errorf("%w: %q", ErrGroupPinned, group)
		}
		if k <= 1 {
			delete(r.splits, group)
		} else {
			r.splits[group] = k
		}
		return nil
	})
}

// MergeGroup collapses a split group back onto its single ring arc,
// migrating its queues home. A no-op (and nil) for an unsplit group.
func (r *Router) MergeGroup(group string) error { return r.SplitGroup(group, 1) }

// PinGroup opts a group out of (or back into) hot-group splitting.
// Pinning an already-split group merges it first: a job that needs
// strict co-location needs it NOW, not at the next policy tick.
func (r *Router) PinGroup(group string, pin bool) error {
	if group == "" || strings.Contains(group, groupSep) {
		return fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	return r.change(func() error {
		if pin {
			r.pinned[group] = true
			delete(r.splits, group)
		} else {
			delete(r.pinned, group)
		}
		return nil
	})
}

// Regroup assigns a queue to an explicit placement group and migrates
// it onto the group's ring owner through the same drain-and-forward
// machinery topology changes use — the migration story for namespaces
// created before placement groups existed: an operator regroups a
// job's queues one by one and their traffic converges onto one shard.
// An empty group reverts to the name-derived key.
//
// Racing a Regroup against a Rebalance of the same queue is safe:
// whichever change runs second re-evaluates the route and the placement
// converges on the last group set. Neither call errors on the race.
func (r *Router) Regroup(queueName, group string) error {
	if strings.Contains(group, groupSep) {
		// "job-7/tasks" as a group would hash the literal string while
		// sibling queues hash "job-7" — reject instead of silently
		// placing the queue away from the group it was meant to join.
		return fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	return r.change(func() error {
		if rt := r.routes[queueName]; rt == nil || !rt.regroup(group) {
			return queue.ErrNoSuchQueue
		}
		return nil
	})
}

// RegroupPrefix assigns every queue whose name starts with prefix to
// the placement group as one topology change, so no Rebalance or other
// change can interleave between two of the prefix's queues and observe
// the group half-applied. Returns how many queues matched the prefix;
// migrations that fail leave their queue routed to its old shard (fully
// usable, converging on the next change), with the errors joined.
//
// The prefix must be non-empty: regrouping the entire namespace is
// almost certainly an operator mistyping, and an explicit per-queue
// Regroup loop is the honest way to spell it.
//
// An empty group reverts matched queues to their name-derived keys.
func (r *Router) RegroupPrefix(prefix, group string) (int, error) {
	if prefix == "" {
		return 0, errors.New("shard: regroup prefix must be non-empty")
	}
	if strings.Contains(group, groupSep) {
		return 0, fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	matched := 0
	err := r.change(func() error {
		for name, rt := range r.routes {
			if strings.HasPrefix(name, prefix) && rt.regroup(group) {
				matched++
			}
		}
		return nil
	})
	return matched, err
}

// pendingMove is one queue whose route disagrees with the ring.
type pendingMove struct {
	name     string
	rt       *route
	from, to string
}

// pendingMovesLocked lists the queues whose current owner is no longer
// their ring owner — computed over each queue's placement-group key,
// so a whole group's queues move together. Caller holds r.mu.
func (r *Router) pendingMovesLocked() []pendingMove {
	var moves []pendingMove
	for name, rt := range r.routes {
		cur, group, _, _ := rt.peek()
		owner, ok := r.ringOwnerLocked(group, name)
		if ok && owner != cur {
			moves = append(moves, pendingMove{name: name, rt: rt, from: cur, to: owner})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].name < moves[j].name })
	return moves
}

// runMoves migrates each queue in turn, attempting every move even
// when one fails — aborting on the first error would leave the rest of
// the namespace diverged from the already-updated ring with no record
// of which queues were skipped. Failed moves stay routed to their old
// shard (fully usable) and converge on the next change. Caller holds
// topoMu.
func (r *Router) runMoves(moves []pendingMove) error {
	var errs []error
	for _, m := range moves {
		if err := r.migrate(m); err != nil {
			errs = append(errs, fmt.Errorf("shard: migrating %s from %s to %s: %w", m.name, m.from, m.to, err))
		}
	}
	return errors.Join(errs...)
}

// route is one queue's placement: a lease on its owner. Readers take the
// lease with await; the one writer of shard is thaw.
type route struct {
	mu sync.Mutex
	// shard currently owning the queue.
	shard string
	// epoch counts the thaws that changed shard.
	epoch uint64
	// group is the explicit placement group set by Regroup; empty means
	// the group is derived from the queue name (DeriveGroup).
	group string
	// frozen is non-nil while the queue is created or migrates;
	// operations wait for it to close (the thaw) and then resolve the
	// owner.
	frozen chan struct{}
	// dead marks a route whose queue was deleted; a pending migration
	// that has not frozen yet must abort rather than stream a deleted
	// queue's messages onto the new owner.
	dead bool
	// draining holds old shards whose in-flight stragglers a background
	// forwarder is still moving over, each with the number of watches
	// asked of that forwarder so far (askWatch, endWatch).
	draining map[string]uint64
}

// newRoute returns a route frozen on shard: CreateQueue publishes it
// before the backend queue exists and thaws it once it does.
func newRoute(shard string) *route {
	return &route{shard: shard, frozen: make(chan struct{}), draining: make(map[string]uint64)}
}

// lockThawed waits out any freeze and returns holding rt.mu.
func (rt *route) lockThawed() {
	for {
		rt.mu.Lock()
		ch := rt.frozen
		if ch == nil {
			return
		}
		rt.mu.Unlock()
		<-ch
	}
}

// await waits out any freeze and reads the lease in one critical
// section: the owner, the group, the epoch the owner was installed at,
// and whether the queue has been deleted.
func (rt *route) await() (shard, group string, epoch uint64, dead bool) {
	rt.lockThawed()
	shard, group, epoch, dead = rt.shard, rt.group, rt.epoch, rt.dead
	rt.mu.Unlock()
	return
}

// peek reads the placement without waiting out a freeze — snapshots and
// the topology diff must not block on a migration — plus the residues:
// old shards still draining stragglers. The current owner is excluded
// from them even when its forwarder has not exited yet (the queue
// migrated back onto a watched shard), so no reader counts the live copy
// twice.
func (rt *route) peek() (shard, group string, dead bool, residues []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for id := range rt.draining {
		if id != rt.shard {
			residues = append(residues, id)
		}
	}
	return rt.shard, rt.group, rt.dead, residues
}

// freeze waits out any freeze in progress — overwriting its channel
// would strand its waiters — and freezes the route: new operations on
// the queue block until the thaw. It refuses a route that was re-routed
// off from or deleted since the move was computed; streaming a deleted
// queue's messages would plant a ghost copy on the new owner.
func (rt *route) freeze(from string) bool {
	rt.lockThawed()
	defer rt.mu.Unlock()
	if rt.shard != from || rt.dead {
		return false
	}
	rt.frozen = make(chan struct{})
	return true
}

// thaw ends the freeze with the queue on shard. A thaw that changes the
// owner bumps the epoch. dead is never reset: a DeleteQueue may have
// marked the route while it was frozen.
func (rt *route) thaw(shard string) {
	rt.mu.Lock()
	if shard != rt.shard {
		rt.shard = shard
		rt.epoch++
	}
	close(rt.frozen)
	rt.frozen = nil
	rt.mu.Unlock()
}

// key is the queue's ring key (effectiveGroup), for the group rate axis.
func (rt *route) key(name string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return effectiveGroup(rt.group, name)
}

// kill marks the route's queue deleted.
func (rt *route) kill() {
	rt.mu.Lock()
	rt.dead = true
	rt.mu.Unlock()
}

// regroup sets the explicit placement group of a live route.
func (rt *route) regroup(group string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.dead {
		return false
	}
	rt.group = group
	return true
}

// askWatch records that a migration left a residue on shard and reports
// whether no forwarder is there yet.
func (rt *route) askWatch(shard string) (first bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.draining[shard]++
	return rt.draining[shard] == 1
}

// endWatch is a forwarder letting go of shard after its watches answered
// the first seen requests. When one more came in meanwhile — the queue
// moved back onto shard and off again, and that migration, finding a
// forwarder there, started no twin — it owes another watch and stays.
// Asking and letting go are one critical section each, so no interleaving
// leaves a residue with neither.
func (rt *route) endWatch(shard string, seen uint64) (asked uint64, done bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if asked = rt.draining[shard]; asked == seen {
		delete(rt.draining, shard)
		return asked, true
	}
	return asked, false
}

// migrate moves one queue: freeze, stream the visible backlog to the
// new owner, thaw with the route switched, and leave a forwarder
// watching the old shard for in-flight messages that expire back into
// visibility. On error the route thaws unchanged and the queue stays
// usable — at worst some already-streamed messages are redelivered from
// the new owner later, within the at-least-once contract. Caller holds
// topoMu.
func (r *Router) migrate(m pendingMove) error {
	fromB, toB := r.backend(m.from), r.backend(m.to)
	if fromB == nil || toB == nil {
		return ErrNoSuchShard
	}
	if !m.rt.freeze(m.from) {
		return nil
	}
	// Either way the residue is put under watch before the thaw, so no
	// reader of the thawed route sees its owner without its draining
	// shard; the forwarder takes the owner from await, after the thaw.
	streamed, err := stream(m.name, fromB, toB)
	if err != nil {
		// Batches already streamed to the new owner would otherwise sit
		// there invisibly (the route still points at the old shard, and
		// nothing revisits them until the next topology change) — so a
		// forwarder carries them back to wherever the route points.
		if streamed {
			r.watch(m.name, m.rt, m.to)
		}
		m.rt.thaw(m.from)
		return err
	}
	r.watch(m.name, m.rt, m.from)
	m.rt.thaw(m.to)
	return nil
}

// stream moves a frozen queue's visible backlog from one shard to
// another and reports whether anything reached the destination.
// Receivers that raced the freeze hold leases on the old shard; those
// messages are not visible and are handled by their receipts or the
// forwarder.
func stream(name string, fromB, toB queue.API) (bool, error) {
	if err := toB.CreateQueue(name); err != nil && !errors.Is(err, queue.ErrQueueExists) {
		return false, err
	}
	streamed := false
	for {
		msgs, err := fromB.ReceiveMessageBatch(name, drainVisibility, queue.MaxBatch, 0)
		if errors.Is(err, queue.ErrNoSuchQueue) {
			// Deleted under the freeze (DeleteQueue waits, but the queue
			// may have been gone before the move started).
			return streamed, nil
		}
		if err != nil || len(msgs) == 0 {
			return streamed, err
		}
		// Transfer before delete: a failure between the two redelivers
		// from the old shard instead of losing messages.
		if err := transferBatch(toB, name, msgs); err != nil {
			return streamed, err
		}
		streamed = true
		if _, err := fromB.DeleteMessageBatch(name, receiptsOf(msgs)); err != nil && !errors.Is(err, queue.ErrNoSuchQueue) {
			return streamed, err
		}
	}
}

func receiptsOf(msgs []queue.Message) []string {
	receipts := make([]string, len(msgs))
	for i, msg := range msgs {
		receipts[i] = msg.ReceiptHandle
	}
	return receipts
}

// watch ensures exactly one forwarder watches the queue's residue on
// shard; one still there from an earlier move is asked to look again.
func (r *Router) watch(name string, rt *route, shard string) {
	if rt.askWatch(shard) {
		r.fwd.Add(1)
		go r.forward(name, rt, shard, r.backend(shard))
	}
}

// forward watches a queue's old shard after migration. Messages the
// drain could not take — in flight, leased to live consumers — either
// get deleted through their (shard-routed) receipts or expire back to
// visible, in which case they are forwarded to the current owner. When
// the old queue is empty it is deleted; at the lease horizon the
// forwarder gives up and leaves it, so outstanding receipts stay valid.
// Whatever ended a watch, the only way out is endWatch.
func (r *Router) forward(name string, rt *route, from string, fromB queue.API) {
	defer r.fwd.Done()
	for seen, done := rt.endWatch(from, 0); !done; seen, done = rt.endWatch(from, seen) {
		r.drainResidue(name, rt, from, fromB)
	}
}

// drainResidue is one watch over from: until the queue lives on from
// again (the "old" copy IS the live queue), the residue is gone, the
// lease horizon passes, or the router closes.
//
// Idle polls back off exponentially from ForwardInterval to a quarter
// of drainVisibility: every poll is a billed request (a real HTTP round
// trip on a remote shard), and consumers holding long heartbeat-renewed
// leases would otherwise draw a constant poll stream for the whole
// lease.
func (r *Router) drainResidue(name string, rt *route, from string, fromB queue.API) {
	deadline := time.Now().Add(leaseHorizon)
	interval := r.cfg.ForwardInterval
	maxInterval := max(drainVisibility/4, interval)
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-r.closing:
			return
		}
		if owner, _, _, _ := rt.await(); owner == from {
			return
		}
		visible, inflight, err := fromB.ApproximateCount(name)
		if errors.Is(err, queue.ErrNoSuchQueue) {
			return // queue gone — deleted or already cleaned up
		}
		if err == nil && visible > 0 {
			r.forwardVisible(name, rt, fromB)
			interval = r.cfg.ForwardInterval // progress: poll eagerly again
			timer.Reset(interval)
			continue // re-check counts before deciding to stop
		}
		// Idle, or a transient failure (a remote shard hiccup): back off
		// and keep watching — exiting here would strand whatever is still
		// leased on the old shard.
		interval = min(interval*2, maxInterval)
		if err == nil && inflight == 0 {
			// Delete under topoMu so no migration can land the queue
			// back on this shard between the emptiness check and the
			// delete; both are re-verified once topology is pinned.
			r.topoMu.Lock()
			owner, _, _, _ := rt.await()
			stop := false
			if owner == from {
				stop = true // live again; leave it alone
			} else if v, inf, cerr := fromB.ApproximateCount(name); errors.Is(cerr, queue.ErrNoSuchQueue) {
				stop = true // already gone
			} else if cerr == nil && v == 0 && inf == 0 {
				_ = fromB.DeleteQueue(name) // a failed delete leaves an empty residue, nothing to lose
				stop = true
			}
			// A transient count error falls through: keep watching.
			r.topoMu.Unlock()
			if stop {
				return
			}
			// Refilled while unguarded; keep forwarding eagerly.
			interval = r.cfg.ForwardInterval
			timer.Reset(interval)
			continue
		}
		if time.Now().After(deadline) {
			return
		}
		timer.Reset(interval)
	}
}

// forwardVisible moves one round of expired stragglers from the old
// shard to the queue's current owner (resolved per batch, so chained
// migrations land messages on the newest owner).
func (r *Router) forwardVisible(name string, rt *route, fromB queue.API) {
	for {
		msgs, err := fromB.ReceiveMessageBatch(name, drainVisibility, queue.MaxBatch, 0)
		if err != nil || len(msgs) == 0 {
			return
		}
		_, _, ownerB, err := r.ownerBackend(name, rt)
		if err != nil {
			return // queue deleted while forwarding
		}
		if err := transferBatch(ownerB, name, msgs); err != nil {
			return
		}
		_, _ = fromB.DeleteMessageBatch(name, receiptsOf(msgs)) // a failed delete redelivers, never loses
	}
}

// transferBatch moves one received batch onto dst, preserving each
// message's delivery count through the privileged transfer surface:
// the receive that pulled the batch off the source shard is router
// plumbing, not a consumer delivery, so the count carried over is
// Receives-1. (Only the receive of THIS attempt can be discounted: if
// the transfer fails and the source redelivers, the failed attempt's
// receive stays in the count — at most one budget unit per failed
// attempt, erring toward earlier dead-lettering; see the package doc.)
// When dst cannot take transfers — a foreign queue.API implementation,
// or a remote shard whose admin token is not provisioned — it falls
// back to a public re-send, which keeps the migration safe but
// restarts counts (the pre-transfer behaviour).
func transferBatch(dst queue.API, name string, msgs []queue.Message) error {
	if tr, ok := dst.(queue.Transferrer); ok {
		items := make([]queue.TransferItem, len(msgs))
		for i, msg := range msgs {
			items[i] = queue.TransferItem{Body: msg.Body, Receives: msg.Receives - 1}
		}
		_, err := tr.TransferInBatch(name, items)
		if err == nil || !errors.Is(err, queue.ErrNotPrivileged) {
			return err
		}
	}
	bodies := make([][]byte, len(msgs))
	for i, msg := range msgs {
		bodies[i] = msg.Body
	}
	_, err := dst.SendMessageBatch(name, bodies)
	return err
}
