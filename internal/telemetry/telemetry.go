// Package telemetry is the stack's self-measurement layer: lock-cheap
// counters, gauges, fixed-bucket latency histograms, and windowed rates,
// collected in a Registry that renders both JSON and Prometheus text
// format.
//
// The paper's Section 3 variability study is about distributions —
// sustained throughput and run-time spread — so the instruments here are
// built to answer distribution questions cheaply enough to stay on the
// hot path: every record operation is a handful of atomic adds, no locks
// and no allocation. Components create their instruments once at
// construction (Registry get-or-create) and hold the pointers; only
// rendering takes the registry lock.
//
// A nil *Registry is valid everywhere: instruments are still created and
// usable, they are just not registered anywhere. That lets every
// component instrument itself unconditionally — the caller decides
// whether the numbers are observable by wiring a registry in.
//
// A layer instruments itself the same way whichever it is (queue
// service, blob store, shard router, wire server): one Ops for its
// per-op latency histograms, timed with defer ops.Done(op, ops.Start()),
// and one Rates per run-time axis its traffic is attributed along (per
// queue, per shard, per group). A layer that shares a registry with its
// peers names itself with a label on the base name, and Label composes
// the op or axis label after it: `queue_op_ns{svc="local0",op="send"}`.
// Both are nil for a nil registry, so an uninstrumented layer reads no
// clock and registers nothing.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"math/bits"
	"sync/atomic"
	"time"
)

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we run; a zero ID
		// still traces, it just won't be unique.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential latency buckets. Bucket i
// holds observations in (2^(i-1), 2^i] microseconds, bucket 0 holds
// (0, 1µs]; the last bucket is the overflow for anything slower than
// ~67s. The range 1µs..2^26µs covers everything from an in-process
// queue op (~1µs) to a long-poll wait.
const histBuckets = 28

// Histogram is a fixed-bucket latency histogram with exponential bucket
// bounds. Observe is atomic-only; quantiles are estimated at read time
// by linear interpolation inside the winning bucket, which is accurate
// to within a factor of 2 by construction — good enough to tell a 10µs
// path from a 10ms one, which is the question the paper's variability
// analysis actually asks.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an unregistered histogram (see Registry.Histogram
// for the registered path).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketFor maps a duration to its bucket index: ceil(log2(µs)),
// clamped to the overflow bucket.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketFor(d)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution, or 0 when the histogram is empty. The estimate
// interpolates linearly inside the bucket holding the q-th sample.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			upper := bucketUpper(i)
			frac := (rank - cum) / n
			return lower + time.Duration(frac*float64(upper-lower))
		}
		cum += n
	}
	return bucketUpper(histBuckets - 1)
}

// BucketCounts returns a copy of the raw bucket counters (bucket i
// holds observations in (2^(i-1), 2^i] microseconds). Together with
// Sum, it is the histogram's full persistable state: layers that
// snapshot histograms to durable storage (the calibration catalog)
// round-trip through BucketCounts and Merge.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Merge folds previously exported state into the histogram: sumNS nanoseconds
// spread over the given bucket counts (indices beyond the bucket range are
// ignored). The observation count is the sum of the bucket counts.
func (h *Histogram) Merge(sumNS int64, buckets []int64) {
	var n int64
	for i, c := range buckets {
		if i >= histBuckets || c <= 0 {
			continue
		}
		h.buckets[i].Add(c)
		n += c
	}
	h.count.Add(n)
	h.sum.Add(sumNS)
}

// HistogramSnapshot is a histogram's point-in-time summary.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		SumNS: int64(h.Sum()),
		P50NS: int64(h.Quantile(0.50)),
		P95NS: int64(h.Quantile(0.95)),
		P99NS: int64(h.Quantile(0.99)),
	}
}

// rateWindow is how many completed one-second slots a Rate averages
// over.
const rateWindow = 10

// Rate measures a windowed events-per-second rate over the last
// rateWindow completed seconds. Mark is atomic-only; a slot whose second
// has passed is lazily reclaimed by the next Mark that lands on it
// (increments racing the reclaim can be dropped — the rate is
// approximate by design, like any sampled load stat).
type Rate struct {
	total atomic.Int64 // lifetime count, exact
	slots [rateWindow + 1]struct {
		sec   atomic.Int64
		count atomic.Int64
	}
	// now is overridable for tests; nil means time.Now.
	now func() time.Time
}

func (r *Rate) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// Mark records n events at the current time.
func (r *Rate) Mark(n int64) {
	r.total.Add(n)
	sec := r.clock().Unix()
	slot := &r.slots[int(sec%int64(len(r.slots)))]
	if old := slot.sec.Load(); old != sec {
		if slot.sec.CompareAndSwap(old, sec) {
			slot.count.Store(0)
		}
	}
	slot.count.Add(n)
}

// Total returns the lifetime event count.
func (r *Rate) Total() int64 { return r.total.Load() }

// PerSecond returns the average events/second over the last rateWindow
// completed seconds (the current, partial second is excluded so a
// scrape early in a second does not understate the rate).
func (r *Rate) PerSecond() float64 {
	sec := r.clock().Unix()
	var sum int64
	for i := range r.slots {
		s := r.slots[i].sec.Load()
		if s >= sec-rateWindow && s < sec {
			sum += r.slots[i].count.Load()
		}
	}
	return float64(sum) / rateWindow
}
