package telemetry

import (
	"sync"
	"time"
)

// Ops is one layer's per-op latency histograms, metric{op="…"}, all
// registered when the layer is built so recording one never takes the
// registry lock. A nil *Ops, which is what NewOps returns for a nil
// registry, is an uninstrumented layer: Start reads no clock and Done
// records nothing. A layer therefore times an op unconditionally with
//
//	defer s.ops.Done("send", s.ops.Start())
//
// and pays one branch for it when nothing is wired in.
type Ops struct {
	hists map[string]*Histogram
}

// NewOps registers metric{op="…"} on reg for each op, or returns nil
// when reg is nil. metric may already carry labels (see Label).
func NewOps(reg *Registry, metric string, ops ...string) *Ops {
	if reg == nil {
		return nil
	}
	o := &Ops{hists: make(map[string]*Histogram, len(ops))}
	for _, op := range ops {
		o.hists[op] = reg.Histogram(Label(metric, "op", op))
	}
	return o
}

// Start stamps the beginning of an op: the zero time on a nil Ops.
func (o *Ops) Start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// Done records the latency of an op begun at start. op must be one of
// the ops NewOps registered.
func (o *Ops) Done(op string, start time.Time) {
	if o != nil {
		o.Observe(op, time.Since(start))
	}
}

// Observe records an op's latency that the caller has already measured,
// for a layer that needs the elapsed time itself as well.
func (o *Ops) Observe(op string, d time.Duration) {
	if o != nil {
		o.hists[op].Observe(d)
	}
}

// Rates is one run-time axis of a layer's traffic: a request rate per
// key, metric{axis="key"}. A key's first Mark registers its series, and
// later marks find it without the registry lock. A nil *Rates, which is
// what NewRates returns for a nil registry, marks nothing and reads 0.
type Rates struct {
	reg          *Registry
	metric, axis string
	rates        sync.Map // key → *Rate
}

// NewRates returns the axis-labelled rate family under metric, or nil
// when reg is nil. metric may already carry labels (see Label).
func NewRates(reg *Registry, metric, axis string) *Rates {
	if reg == nil {
		return nil
	}
	return &Rates{reg: reg, metric: metric, axis: axis}
}

// Mark counts one request against key.
func (f *Rates) Mark(key string) {
	if f == nil {
		return
	}
	v, ok := f.rates.Load(key)
	if !ok {
		v, _ = f.rates.LoadOrStore(key, f.reg.Rate(Label(f.metric, f.axis, key)))
	}
	v.(*Rate).Mark(1)
}

// PerSecond reads key's current rate: 0 for a key never marked.
func (f *Rates) PerSecond(key string) float64 {
	if f != nil {
		if v, ok := f.rates.Load(key); ok {
			return v.(*Rate).PerSecond()
		}
	}
	return 0
}
