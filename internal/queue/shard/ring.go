// Package shard fronts N queue services with one queue.API: a
// consistent-hash router maps queue names to shards, so a namespace
// that outgrows one service process spreads across many without the
// consumers (classiccloud, broker) changing a line.
//
// # Ring
//
// Each shard contributes 64 virtual points to a hash ring; a queue
// lives on the shard owning the first point at or after the hash of
// its placement-group key. Virtual nodes keep the split even, and —
// the property the router's rebalancing depends on — adding a shard to
// an N-shard ring moves only ~1/(N+1) of the groups, all of them onto
// the new shard.
//
// Arcs are weighted: a shard's share of the key space scales with its
// weight (default 1.0), set from observed load so Rebalance converges
// toward equal load rather than equal key space. A shard's virtual
// nodes are the prefix "id#0..id#(n-1)" of one deterministic sequence,
// so raising a weight only adds points and lowering it only removes
// them — weight changes move the minimal set of groups, the same
// property shard adds have.
//
// # Placement groups
//
// The ring hashes DeriveGroup(name) — the prefix before the first '/',
// or the whole name — rather than the raw queue name, so "job-7/tasks",
// "job-7/monitor", and "job-7/dead" co-locate on one shard and a job's
// queue traffic never crosses shards. A queue's group is its name, so
// it is fixed when the queue is created; only a split (Router.SplitGroup)
// spreads a group's queues over more than one shard.
//
// # Migration
//
// Shards can be added and removed at runtime. Moving a queue is
// drain-and-forward: the router freezes the queue (new operations
// block), streams the visible backlog to the new owner, then thaws with
// the route switched. Messages in flight on the old shard stay there
// until their consumer deletes them — receipt handles embed the issuing
// shard, so acknowledgements and lease renewals keep routing to it —
// and a background forwarder moves any that expire instead, until the
// old queue is empty or the lease horizon passes. Work is never lost
// and never duplicated beyond the at-least-once contract the queue
// already has.
//
// Migration moves messages through the privileged transfer API
// (queue.Transferrer), which carries each message's delivery count to
// the new owner: a poison task's progress toward a MaxReceives
// dead-letter cap survives the move, so consumers like classiccloud
// dead-letter after exactly MaxReceives receives no matter how often
// the topology changed underneath them. Two bounded caveats: a drain
// attempt that fails AFTER receiving a batch (transfer error, then
// abort) leaves those messages' counts advanced by that one receive —
// each failed attempt can consume at most one unit of retry budget,
// erring toward earlier dead-lettering, never toward retrying forever.
// And a transfer is the only way a message moves: a destination that
// cannot take one — a remote shard without its admin token — refuses the
// move before anything is received, and the queue stays where it was.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Weight bounds: a shard can hold at most 16x and at least 1/16 of its
// fair share. Wider ratios would let a runaway load estimate starve a
// shard to a single virtual node (terrible balance) or balloon the
// point list.
const (
	minWeight = 1.0 / 16
	maxWeight = 16.0
)

// ring is a consistent-hash ring over shard ids. It is not
// concurrency-safe; the Router guards it.
type ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	ids     map[string]bool
	weights map[string]float64
}

type ringPoint struct {
	hash  uint64
	shard string
	// index is the point's position in the shard's deterministic
	// "id#v" sequence; weight changes trim or extend by index.
	index int
}

func newRing(vnodes int) *ring {
	return &ring{vnodes: vnodes, ids: make(map[string]bool), weights: make(map[string]float64)}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is splitmix64's finalizer. FNV alone clusters the short,
// similar strings queue and vnode names are made of, which skews the
// ring arcs badly; the avalanche pass spreads them uniformly while
// staying deterministic across processes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// clampWeight pins a weight into [minWeight, maxWeight]; NaN and
// non-positive values reset to 1 rather than silently emptying a
// shard's arc.
func clampWeight(w float64) float64 {
	if !(w > 0) { // catches NaN too
		return 1
	}
	if w < minWeight {
		return minWeight
	}
	if w > maxWeight {
		return maxWeight
	}
	return w
}

// pointCount is the number of virtual nodes a weight buys: the
// configured vnodes scaled by the weight, never below one (a live
// shard always owns some arc).
func (r *ring) pointCount(w float64) int {
	n := int(float64(r.vnodes)*w + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// add registers a shard's virtual nodes at weight 1.
func (r *ring) add(id string) {
	if r.ids[id] {
		return
	}
	r.ids[id] = true
	r.weights[id] = 1
	r.appendPoints(id, 0, r.pointCount(1))
}

// setWeight rescales a shard's arc. The shard's points are the prefix
// of one deterministic "id#v" sequence, so the rebuild keeps every
// point the old and new counts share — only the difference moves
// groups. Reports whether the point count actually changed.
func (r *ring) setWeight(id string, w float64) bool {
	if !r.ids[id] {
		return false
	}
	w = clampWeight(w)
	oldN := r.pointCount(r.weights[id])
	newN := r.pointCount(w)
	r.weights[id] = w
	if newN == oldN {
		return false
	}
	if newN < oldN {
		kept := r.points[:0]
		for _, p := range r.points {
			if p.shard == id && p.index >= newN {
				continue
			}
			kept = append(kept, p)
		}
		r.points = kept
		return true
	}
	r.appendPoints(id, oldN, newN)
	return true
}

// appendPoints adds the shard's virtual nodes from..to-1 and re-sorts.
func (r *ring) appendPoints(id string, from, to int) {
	for v := from; v < to; v++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", id, v)), id, v})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// remove drops a shard's virtual nodes.
func (r *ring) remove(id string) {
	if !r.ids[id] {
		return
	}
	delete(r.ids, id)
	delete(r.weights, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// owner returns the shard owning key, or ok=false on an empty ring.
// The ring walk is deterministic: every process with the same member
// set computes the same owner.
func (r *ring) owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.successor(key, 0)
}

// successor returns the i-th DISTINCT shard at or after key's hash in
// ring order — the walk replica placement uses, here carrying sub-arc
// placement for split groups: sub-arc i of a group lands on the i-th
// distinct successor of the group's own hash, so k sub-arcs are
// guaranteed to spread over min(k, members) different shards. Hashing
// "group#i" as an ordinary key cannot promise that (several sub-keys
// routinely collapse onto one lucky shard), and a collapsed split
// relieves nothing. i wraps modulo the member count, and the walk is
// as deterministic as owner's.
func (r *ring) successor(key string, i int) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	if n := len(r.ids); n > 0 {
		i %= n
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	var seen map[string]bool
	for j := 0; j < len(r.points); j++ {
		p := r.points[(start+j)%len(r.points)]
		if i == 0 {
			return p.shard, true
		}
		if seen == nil {
			seen = make(map[string]bool, i+1)
		}
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		if len(seen) == i+1 {
			return p.shard, true
		}
	}
	// Unreachable: i < len(r.ids) and every id owns at least one point.
	return r.points[start].shard, true
}

// members returns the shard ids on the ring, sorted.
func (r *ring) members() []string {
	out := make([]string, 0, len(r.ids))
	for id := range r.ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
