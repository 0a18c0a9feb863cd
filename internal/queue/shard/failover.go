package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/queue"
)

// Failover: replacing a dead shard's backend in place.
//
// A shard id is a stable routing name — receipts embed it (wrapReceipt)
// and the ring hashes over it — so recovering a dead shard must keep
// the id and swap what it points to. A standby is registered per shard
// as a promotion thunk (typically queue.Follower.Promote, which folds
// the primary's journal tail and returns a live Service with every
// receipt and lease intact); Failover runs the thunk and atomically
// re-points the id at the promoted backend. Because the follower
// replayed the same journal the primary wrote ahead of every
// acknowledgement, no acknowledged message is lost and delivery counts
// keep advancing — a poison message stays on its way to the
// dead-letter queue with no reset.
//
// StartHealthChecks turns the mechanism into a policy: a background
// loop probes each shard's liveness (queue.Pinger when offered) and
// fails over automatically when a probed shard with a standby stops
// answering.

// ErrNoStandby rejects a failover of a shard with no registered
// standby.
var ErrNoStandby = errors.New("shard: no standby registered for shard")

// standby is one registered promotion thunk plus its in-flight flag:
// set while a Failover is running the thunk, so the registration is
// only consumed on success and a failed promotion stays retryable.
type standby struct {
	promote  func() (queue.API, error)
	inflight bool
}

// SetStandby registers a promotion thunk for a shard: Failover(id)
// calls it and installs whatever backend it returns under the same
// shard id. Registering again replaces the previous standby (the old
// one is NOT promoted or closed — the caller owns its lifecycle). The
// thunk must only be safe to call when the current backend is
// confirmed dead; the router never runs it twice concurrently, and a
// promotion that succeeds consumes the registration. A promotion that
// FAILS leaves the registration armed, so a retried Failover can run
// the thunk again — thunks must tolerate that (queue.Follower.Promote
// does: a failed final fold leaves the follower unpromoted).
func (r *Router) SetStandby(id string, promote func() (queue.API, error)) error {
	if promote == nil {
		return errors.New("shard: nil standby promotion")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[id]; !ok {
		return ErrNoSuchShard
	}
	if r.standbys == nil {
		r.standbys = make(map[string]*standby)
	}
	r.standbys[id] = &standby{promote: promote}
	return nil
}

// Failover promotes the shard's registered standby and swaps it in
// under the same id, consuming the registration only once promotion
// succeeds — a transient promotion failure (e.g. a blob error during
// the final fold) leaves the standby registered so the failover can be
// retried. Routing state — the ring, routes, placement groups — is
// untouched: the id still owns exactly the queues it owned, and
// receipts issued by the dead backend route to the promoted one (which
// replayed the journal that makes them live). Concurrent data-plane
// calls see either the old backend (failing with whatever the dead
// shard returns, e.g. queue.ErrHalted) or the promoted one; callers
// that retry converge.
func (r *Router) Failover(id string) error {
	// Serialize with topology changes: a migration streaming messages
	// off this shard must not race the backend swap.
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	sb := r.standbys[id]
	if sb == nil {
		r.mu.Unlock()
		if _, ok := r.shards[id]; !ok {
			return ErrNoSuchShard
		}
		return fmt.Errorf("%w: %s", ErrNoStandby, id)
	}
	if sb.inflight {
		r.mu.Unlock()
		return fmt.Errorf("shard: failover already in flight for %s", id)
	}
	sb.inflight = true
	r.mu.Unlock()
	// Promotion folds the journal tail — blob I/O, done outside r.mu so
	// the data plane keeps routing while the standby catches up.
	b, err := sb.promote()
	r.mu.Lock()
	sb.inflight = false
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: promoting standby for %s: %w", id, err)
	}
	// Consume the registration — unless SetStandby replaced it while
	// the promotion ran, in which case the newer standby stays armed.
	if r.standbys[id] == sb {
		delete(r.standbys, id)
	}
	r.shards[id] = b
	r.mu.Unlock()
	return nil
}

// Standbys lists the shard ids that currently have a registered
// standby, sorted for stable display.
func (r *Router) Standbys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.standbys))
	for id := range r.standbys {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// StartHealthChecks launches a background probe loop: every interval,
// each shard offering queue.Pinger is pinged, and a shard that fails
// its probe while holding a registered standby is failed over
// automatically. Shards without a Pinger (remote clients) are left to
// operator-driven Failover. The loop stops at Close. Returns the
// number of loops running (always 1) mostly so callers can assert it
// started; calling it twice starts a second independent loop — don't.
func (r *Router) StartHealthChecks(interval time.Duration) {
	r.fwd.Add(1)
	go func() {
		defer r.fwd.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.closing:
				return
			case <-t.C:
				r.sweepHealth()
			}
		}
	}()
}

// Failovers reports how many automatic failovers the health loop has
// performed.
func (r *Router) Failovers() int64 { return r.failovers.Load() }

// sweepHealth probes every shard that both offers a liveness probe and
// has a standby to fail over to.
func (r *Router) sweepHealth() {
	r.mu.RLock()
	type probe struct {
		id   string
		ping queue.Pinger
	}
	var probes []probe
	for id := range r.standbys {
		if b := r.shards[id]; b != nil {
			if p, ok := b.(queue.Pinger); ok {
				probes = append(probes, probe{id, p})
			}
		}
	}
	r.mu.RUnlock()
	for _, p := range probes {
		if p.ping.Ping() == nil {
			continue
		}
		if err := r.Failover(p.id); err == nil {
			r.failovers.Add(1)
		}
	}
}
