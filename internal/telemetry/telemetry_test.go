package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// 90 fast samples and 10 slow ones: p50 must land in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 > 100*time.Microsecond {
		t.Errorf("p50 = %v, want within the fast bucket (≤100µs)", p50)
	}
	if p99 < time.Millisecond {
		t.Errorf("p99 = %v, want in the slow bucket (≥1ms)", p99)
	}
	if p99 > 20*time.Millisecond {
		t.Errorf("p99 = %v, want ≤ 2× the slow sample", p99)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{10 * time.Minute, histBuckets - 1}, // overflow
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRateWindow(t *testing.T) {
	r := &Rate{}
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }
	// 50 events/sec for 10 full seconds.
	for s := 0; s < 10; s++ {
		for i := 0; i < 50; i++ {
			r.Mark(1)
		}
		now = now.Add(time.Second)
	}
	if got := r.Total(); got != 500 {
		t.Fatalf("total = %d, want 500", got)
	}
	if got := r.PerSecond(); got != 50 {
		t.Fatalf("rate = %g/s, want 50", got)
	}
	// 20 idle seconds later the window is empty.
	now = now.Add(20 * time.Second)
	if got := r.PerSecond(); got != 0 {
		t.Fatalf("idle rate = %g/s, want 0", got)
	}
}

// TestConcurrentInstruments hammers every instrument type from many
// goroutines; run under -race this is the memory-safety proof for the
// lock-free hot path.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			rt := r.Rate("r")
			g := r.Gauge("g")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
				rt.Mark(1)
				g.Set(int64(j))
			}
		}()
	}
	go r.Snapshot() // concurrent render must be safe too
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("queue_requests").Add(3)
	r.Gauge("fleet").Set(4)
	r.GaugeFunc("live", func() int64 { return 42 })
	r.Histogram(Label("queue_op_ns", "op", "send")).Observe(10 * time.Microsecond)
	r.Rate("sends").Mark(2)
	r.Rate(Label("shard_requests", "shard", "a")).Mark(5)
	collected := false
	r.AddCollector(func(reg *Registry) { collected = true; reg.Gauge("from_collector").Set(1) })

	prom := string(r.RenderProm())
	if !collected {
		t.Error("collector was not run on render")
	}
	for _, want := range []string{
		"# TYPE queue_requests counter",
		"queue_requests 3",
		"fleet 4",
		"live 42",
		"from_collector 1",
		"# TYPE queue_op_ns summary",
		`queue_op_ns{op="send",quantile="0.5"}`,
		`queue_op_ns_count{op="send"} 1`,
		"sends_total 2",
		"# TYPE shard_requests_total counter",
		`shard_requests_total{shard="a"} 5`,
		`shard_requests_per_sec{shard="a"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q\n%s", want, prom)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal(r.RenderJSON(), &snap); err != nil {
		t.Fatalf("RenderJSON not valid JSON: %v", err)
	}
	if snap.Counters["queue_requests"] != 3 {
		t.Errorf("json counters = %v", snap.Counters)
	}
	if snap.Histograms[`queue_op_ns{op="send"}`].Count != 1 {
		t.Errorf("json histograms = %v", snap.Histograms)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Millisecond)
	r.Rate("x").Mark(1)
	r.GaugeFunc("x", func() int64 { return 1 })
	r.AddCollector(func(*Registry) {})
	if got := r.Snapshot(); got.Counters != nil {
		t.Fatalf("nil registry snapshot = %+v, want zero", got)
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits 1") {
		t.Errorf("prom body = %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || snap.Counters["hits"] != 1 {
		t.Errorf("json body = %q err = %v", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || a == b {
		t.Fatalf("trace ids %q %q: want 16 hex chars, unique", a, b)
	}
}
