package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Registry collects named instruments and renders them. Instrument
// lookup is get-or-create under a mutex — components call it once at
// construction and hold the returned pointer, so the lock never sits on
// a request path.
//
// Names follow the Prometheus convention, optionally with inline labels
// baked into the name: `queue_op_ns{op="receive"}`. The label part is
// carried verbatim into the text rendering and used as the JSON key, so
// one base name can fan out per-op / per-shard / per-queue series
// without a separate label API.
//
// All methods are safe on a nil *Registry: they return working,
// unregistered instruments. That keeps call sites branch-free when
// telemetry is not wired up.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	gaugeFns  map[string]func() int64
	hists     map[string]*Histogram
	rates     map[string]*Rate
	collectFn []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
		rates:    make(map[string]*Rate),
	}
}

// Label adds one inline label to a name, after any it already carries:
// Label("x_ns", "op", "send") is `x_ns{op="send"}`, and
// Label(`x_ns{svc="a"}`, "op", "send") is `x_ns{svc="a",op="send"}`.
func Label(name, key, value string) string {
	return withLabel(name, fmt.Sprintf("%s=%q", key, value))
}

// getOrCreate returns the instrument registered under name in the map
// pick selects, creating it if needed. Every instrument's zero value is
// ready to use, so a nil registry hands out a fresh unregistered one.
func getOrCreate[T any](r *Registry, name string, pick func(*Registry) map[string]*T) *T {
	if r == nil {
		return new(T)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := pick(r)
	v, ok := m[name]
	if !ok {
		v = new(T)
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return getOrCreate(r, name, func(r *Registry) map[string]*Counter { return r.counters })
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return getOrCreate(r, name, func(r *Registry) map[string]*Gauge { return r.gauges })
}

// GaugeFunc registers (or replaces) a gauge computed at render time.
// The function must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return getOrCreate(r, name, func(r *Registry) map[string]*Histogram { return r.hists })
}

// Rate returns the named rate, creating it if needed.
func (r *Registry) Rate(name string) *Rate {
	return getOrCreate(r, name, func(r *Registry) map[string]*Rate { return r.rates })
}

// AddCollector registers a hook run at the start of every Snapshot or
// render, for components whose instrument set is dynamic (e.g. a shard
// router refreshing one backlog gauge per live shard).
func (r *Registry) AddCollector(fn func(*Registry)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectFn = append(r.collectFn, fn)
}

func (r *Registry) collect() {
	r.mu.Lock()
	fns := append([]func(*Registry){}, r.collectFn...)
	r.mu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
}

// RateSnapshot is a rate's point-in-time summary.
type RateSnapshot struct {
	Total     int64   `json:"total"`
	PerSecond float64 `json:"per_sec"`
}

// Snapshot is the registry's full point-in-time state.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Rates      map[string]RateSnapshot      `json:"rates,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFns)),
		Rates:      make(map[string]RateSnapshot, len(r.rates)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, rt := range r.rates {
		s.Rates[name] = RateSnapshot{Total: rt.Total(), PerSecond: rt.PerSecond()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// RenderJSON renders the snapshot as indented JSON.
func (r *Registry) RenderJSON() []byte {
	b, _ := json.MarshalIndent(r.Snapshot(), "", "  ")
	return b
}

// baseName strips the inline label part of a name: `x_ns{op="a"}` → x_ns.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel splices an extra label into a possibly-labeled name:
// (`x{op="a"}`, `quantile="0.5"`) → `x{op="a",quantile="0.5"}`.
func withLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// RenderProm renders the snapshot in the Prometheus text exposition
// format. Histograms render as summaries (quantile series + _count +
// _sum), rates as two gauges (`_total` and `_per_sec`).
func (r *Registry) RenderProm() []byte {
	snap := r.Snapshot()
	var b strings.Builder
	typed := make(map[string]bool)
	emitType := func(name, kind string) {
		base := baseName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, name := range sortedKeys(snap.Counters) {
		emitType(name, "counter")
		fmt.Fprintf(&b, "%s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		emitType(name, "gauge")
		fmt.Fprintf(&b, "%s %d\n", name, snap.Gauges[name])
	}
	// _total and _per_sec are distinct metric families (a counter and a
	// gauge), so each gets its own contiguous pass: interleaving them
	// per-series would split the families, which the exposition format
	// forbids. The suffix goes before the label braces.
	rateKeys := sortedKeys(snap.Rates)
	for _, name := range rateKeys {
		total := baseNameKeepLabels(name, "_total")
		emitType(total, "counter")
		fmt.Fprintf(&b, "%s %d\n", total, snap.Rates[name].Total)
	}
	for _, name := range rateKeys {
		perSec := baseNameKeepLabels(name, "_per_sec")
		emitType(perSec, "gauge")
		fmt.Fprintf(&b, "%s %g\n", perSec, snap.Rates[name].PerSecond)
	}
	for _, name := range sortedKeys(snap.Histograms) {
		hs := snap.Histograms[name]
		emitType(name, "summary")
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, `quantile="0.5"`), hs.P50NS)
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, `quantile="0.95"`), hs.P95NS)
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, `quantile="0.99"`), hs.P99NS)
		fmt.Fprintf(&b, "%s %d\n", baseNameKeepLabels(name, "_sum"), hs.SumNS)
		fmt.Fprintf(&b, "%s %d\n", baseNameKeepLabels(name, "_count"), hs.Count)
	}
	return []byte(b.String())
}

// baseNameKeepLabels appends a suffix to the base name while keeping
// the label part in place: (`x{op="a"}`, "_sum") → `x_sum{op="a"}`.
func baseNameKeepLabels(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Handler serves the registry over HTTP: Prometheus text by default,
// JSON when the request asks for it (`?format=json` or an
// application/json Accept header).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			w.Write(r.RenderJSON())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(r.RenderProm())
	})
}
