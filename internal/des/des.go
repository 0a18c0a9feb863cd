// Package des is a small deterministic discrete-event simulator used by
// the performance model to replay the paper's experiments at full scale
// (hundreds of cores, thousands of files) in milliseconds of real time.
// Events execute in (time, sequence) order, so runs are reproducible.
package des

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback.
type event struct {
	at  float64 // simulation seconds
	seq int64   // tie-break for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Simulation is one simulated timeline.
type Simulation struct {
	now    float64
	seq    int64
	events eventHeap
}

// New creates an empty simulation at time 0.
func New() *Simulation { return &Simulation{} }

// Schedule runs fn after delay seconds of simulated time. Negative
// delays panic: they would reorder the past.
func (s *Simulation) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay))
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run executes events until none remain, returning the final time.
func (s *Simulation) Run() float64 {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// Resource is a capacity-limited server: Acquire queues work (FIFO) and
// starts it when a slot frees; the work calls release() when done.
type Resource struct {
	sim      *Simulation
	capacity int
	busy     int
	waiting  []func(release func())
}

// NewResource creates a resource with the given number of slots.
func NewResource(sim *Simulation, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: resource capacity %d", capacity))
	}
	return &Resource{sim: sim, capacity: capacity}
}

// Acquire schedules fn to run when a slot is available. fn receives a
// release function that it must call exactly once when finished (usually
// from a later scheduled event).
func (r *Resource) Acquire(fn func(release func())) {
	if r.busy < r.capacity {
		r.busy++
		r.start(fn)
		return
	}
	r.waiting = append(r.waiting, fn)
}

func (r *Resource) start(fn func(release func())) {
	released := false
	release := func() {
		if released {
			panic("des: double release")
		}
		released = true
		if len(r.waiting) > 0 {
			next := r.waiting[0]
			r.waiting = r.waiting[1:]
			r.start(next)
			return
		}
		r.busy--
	}
	// Start the work as its own event so Acquire never runs user code
	// synchronously (keeps ordering deterministic).
	r.sim.Schedule(0, func() { fn(release) })
}
