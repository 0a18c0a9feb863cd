package harness

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
)

// The percentile rule: the median plus the highest percentile that
// still has at least ten samples beyond it, with the count stated.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := TailPercentile(tc.n); got != tc.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}

	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond // 1..1000 ms
	}
	tm := TimingOf(samples, time.Millisecond)
	if tm.N != 1000 || tm.TailPercentile != 99 {
		t.Fatalf("timing = %+v, want n=1000 at p99", tm)
	}
	if math.Abs(tm.Median-500.5) > 1e-9 {
		t.Errorf("median = %v, want 500.5", tm.Median)
	}
	beyond := 0
	for _, s := range samples {
		if float64(s)/float64(time.Millisecond) > tm.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the reported p99 %v, want exactly 10", beyond, tm.Tail)
	}

	few := TimingOf(samples[:40], time.Millisecond)
	if few.TailPercentile != 0 || few.Tail != 40 || few.N != 40 {
		t.Errorf("40 samples: %+v, want no percentile and the maximum as tail", few)
	}
}

// Spread follows Python's statistics.quantiles(values, n=4).
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := Spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got := Spread([]float64{3}); got != 0 {
		t.Errorf("Spread of one value = %v, want 0", got)
	}
}

// Self-time arithmetic on a synthetic span set: every level's self time
// is its own time minus the next level's, and selfs plus residual add
// up to the total exactly.
func TestSelfTimesAndResidualSumToTotal(t *testing.T) {
	ms := time.Millisecond
	span := func(op string, start, end time.Duration) Span {
		return Span{Op: op, Start: int64(start), End: int64(end)}
	}
	// Two sends and one receive seen at three depths; the server hop
	// reports the receive under another op name.
	outer := []Span{span(OpSend, 0, 10*ms), span(OpSend, 10*ms, 22*ms), span(OpRecv, 0, 60*ms)}
	mid := []Span{span(OpSend, 1*ms, 8*ms), span(OpSend, 11*ms, 20*ms), span("recv_renamed", 2*ms, 57*ms)}
	inner := []Span{span(OpSend, 2*ms, 6*ms), span(OpSend, 12*ms, 17*ms), span("recv_renamed", 3*ms, 55*ms)}

	selfs := SelfTimes([]Nest{
		{Layer: "wire", ByOp: SumByOp(outer)},
		{Layer: "shard", ByOp: SumByOp(mid)},
		{Layer: "queue", ByOp: SumByOp(inner)},
	})
	if got, want := selfs["wire"][OpSend], 6*ms; got != want { // (10+12) − (7+9)
		t.Errorf("wire send self = %v, want %v", got, want)
	}
	if got, want := selfs["shard"][OpSend], 7*ms; got != want { // (7+9) − (4+5)
		t.Errorf("shard send self = %v, want %v", got, want)
	}
	if got, want := selfs["queue"][OpSend], 9*ms; got != want {
		t.Errorf("queue send self = %v, want %v", got, want)
	}
	// The renamed op is charged to the outer level's "other", so the
	// level totals still telescope to the outermost total.
	var sum time.Duration
	for _, layer := range []string{"wire", "shard", "queue"} {
		sum += LayerSelf(selfs, layer)
	}
	if want := Total(outer); sum != want {
		t.Errorf("selfs add up to %v, want the outermost total %v", sum, want)
	}

	total := 2 * 100 * ms // two workers for 100 ms
	att := Attribute(total, map[string]time.Duration{
		"wire": LayerSelf(selfs, "wire"), "shard": LayerSelf(selfs, "shard"),
		"queue": LayerSelf(selfs, "queue"), "app": 30 * ms,
	})
	var back time.Duration
	for _, d := range att.Selfs {
		back += d
	}
	if back+att.Residual != total {
		t.Errorf("selfs %v + residual %v != total %v", back, att.Residual, total)
	}
	if want := float64(att.Residual) / float64(total); att.Share() != want {
		t.Errorf("share = %v, want %v", att.Share(), want)
	}

	if got := len(Window(outer, int64(5*ms), int64(15*ms))); got != 1 {
		t.Errorf("window kept %d spans, want the one starting at 10ms", got)
	}
}

// facets reduces a capability set to which facets are present.
func facets(c queue.CapabilitySet) [5]bool {
	return [5]bool{c.Transfer != nil, c.Depth != nil, c.Trace != nil, c.Recover != nil, c.Ping != nil}
}

// Interposer fidelity: the wrapper offers exactly the optional facets of
// what it wraps — otherwise the traced run would silently drop trace
// propagation, count-preserving transfer and health pings and measure a
// different program.
func TestWrapPreservesCapabilities(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	if err := router.AddShard("s0", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Service: router}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	client := wire.Dial(ln.Addr().String(), wire.Options{})
	defer client.Close()

	for _, tc := range []struct {
		name  string
		inner queue.API
	}{
		{"*queue.Service", svc},
		{"*shard.Router", router},
		{"*wire.Client", client},
		{"router trace view", router.WithTrace("t")},
		{"wire client trace view", client.WithTrace("t")},
	} {
		probe := NewProbe("test", "", time.Now())
		wrapped, err := Wrap(tc.inner, probe)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got, want := facets(queue.Capabilities(wrapped)), facets(queue.Capabilities(tc.inner)); got != want {
			t.Errorf("%s: wrapped facets %v, want %v (transfer, depth, trace, recover, ping)", tc.name, got, want)
		}
		if ts := queue.Capabilities(wrapped).Trace; ts != nil {
			view := ts.WithTrace("job-trace")
			if got, want := facets(queue.Capabilities(view)), facets(queue.Capabilities(tc.inner)); got != want {
				t.Errorf("%s: scoped view facets %v, want %v", tc.name, got, want)
			}
			// The scoped view must stay inside the measurement.
			if err := view.CreateQueue("g/q-" + tc.name); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			spans := probe.Rec.Spans()
			if len(spans) != 1 || spans[0].Trace != "job-trace" || spans[0].Op != OpAdmin {
				t.Errorf("%s: scoped call recorded as %+v, want one admin span with the trace", tc.name, spans)
			}
		}
	}
}

// The interposer forwards calls unchanged and counts what the layer
// metrics are built from.
func TestProbeRecordsCalls(t *testing.T) {
	probe := NewProbe("queue", "s0", time.Now())
	q, err := Wrap(queue.NewService(queue.Config{}), probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CreateQueue("a/q"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SendMessageBatch("a/q", [][]byte{[]byte("one"), []byte("three")}); err != nil {
		t.Fatal(err)
	}
	msgs, err := q.ReceiveMessageBatch("a/q", time.Minute, 10, 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("received %d messages, err %v", len(msgs), err)
	}
	if err := q.ChangeVisibility("a/q", msgs[0].ReceiptHandle, 0); err != nil {
		t.Fatal(err)
	}
	again, ok, err := q.ReceiveMessage("a/q", time.Minute)
	if err != nil || !ok || again.Receives != 2 {
		t.Fatalf("redelivery: ok=%v receives=%d err=%v", ok, again.Receives, err)
	}
	results, err := q.DeleteMessageBatch("a/q", []string{msgs[0].ReceiptHandle, msgs[1].ReceiptHandle})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil || results[1] != nil {
		t.Fatalf("batch delete results %v, want the superseded receipt stale only", results)
	}
	if got := probe.SentBytes.Load(); got != 8 {
		t.Errorf("sent bytes = %d, want 8", got)
	}
	if got := probe.Redelivered.Load(); got != 1 {
		t.Errorf("redelivered = %d, want 1", got)
	}
	if got := probe.Stale.Load(); got != 1 {
		t.Errorf("stale = %d, want 1", got)
	}
	byOp := map[string]int{}
	for _, s := range probe.Rec.Spans() {
		byOp[s.Op] += 1
		if s.End < s.Start || s.Node != "s0" || s.Layer != "queue" {
			t.Errorf("bad span %+v", s)
		}
	}
	want := map[string]int{OpAdmin: 1, OpSend: 1, OpRecv: 2, OpVisibility: 1, OpDelete: 1}
	for op, n := range want {
		if byOp[op] != n {
			t.Errorf("%d %s spans, want %d (all: %v)", byOp[op], op, n, byOp)
		}
	}
}

// Compare flags a median that worsened by more than its bound, in the
// metric's own direction, and nothing else.
func TestCompareUsesBoundsAndDirection(t *testing.T) {
	result := func(tps, cpu, failed float64) map[string]*Result {
		return map[string]*Result{"w": {Workload: "w", EndToEnd: []MetricResult{
			NewMetricResult(EndToEnd[0], tps, []float64{tps}),       // tasks_per_s, higher, 25 %
			NewMetricResult(EndToEnd[1], cpu, []float64{cpu}),       // cpu_ms_per_task, lower, 25 %
			NewMetricResult(EndToEnd[8], failed, []float64{failed}), // failed_share, bound 0
		}}}
	}
	regressed := func(vs []Verdict) map[string]bool {
		out := map[string]bool{}
		for _, v := range vs {
			out[v.Metric.Name] = v.Regressed
		}
		return out
	}
	base := result(100, 10, 0)
	got := regressed(Compare(base, result(76, 12.4, 0)))
	if got["tasks_per_s"] || got["cpu_ms_per_task"] || got["failed_share"] {
		t.Errorf("within bounds flagged: %v", got)
	}
	got = regressed(Compare(base, result(74, 12.6, 0.001)))
	if !got["tasks_per_s"] || !got["cpu_ms_per_task"] || !got["failed_share"] {
		t.Errorf("beyond bounds not flagged: %v", got)
	}
	got = regressed(Compare(base, result(150, 5, 0)))
	if got["tasks_per_s"] || got["cpu_ms_per_task"] {
		t.Errorf("improvements flagged: %v", got)
	}
}

// A calibration sample is a positive time, and the buffer can be
// released.
func TestCalibratorSamples(t *testing.T) {
	c, err := NewCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if ms := c.Sample(); ms <= 0 {
		t.Errorf("Sample = %v ms, want > 0", ms)
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}
