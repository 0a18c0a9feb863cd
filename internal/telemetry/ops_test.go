package telemetry

import (
	"testing"
	"time"
)

// TestOpsAndRatesRecordFree checks the contract every instrumented layer
// leans on: a registered op and an already-seen key record without
// allocating, into the series Label composes from the layer's own
// labels.
func TestOpsAndRatesRecordFree(t *testing.T) {
	reg := NewRegistry()
	ops := NewOps(reg, `x_ns{svc="a"}`, "send", "receive")
	rates := NewRates(reg, `x_requests{svc="a"}`, "queue")
	rates.Mark("q")

	start := ops.Start()
	if start.IsZero() {
		t.Fatal("instrumented Start returned the zero time")
	}
	if n := testing.AllocsPerRun(100, func() { ops.Done("send", start) }); n != 0 {
		t.Errorf("Ops.Done allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { rates.Mark("q") }); n != 0 {
		t.Errorf("Rates.Mark on a seen key allocates %.1f per call", n)
	}
	// AllocsPerRun runs its function once more than it counts.
	if got := reg.Histogram(`x_ns{svc="a",op="send"}`).Count(); got != 101 {
		t.Errorf(`x_ns{svc="a",op="send"} count = %d, want 101`, got)
	}
	if got := reg.Histogram(`x_ns{svc="a",op="receive"}`).Count(); got != 0 {
		t.Errorf(`x_ns{svc="a",op="receive"} count = %d, want 0`, got)
	}
	if got := reg.Rate(`x_requests{svc="a",queue="q"}`).Total(); got != 102 {
		t.Errorf(`x_requests{svc="a",queue="q"} total = %d, want 102`, got)
	}
	if got := rates.PerSecond("never"); got != 0 {
		t.Errorf("PerSecond of an unmarked key = %v, want 0", got)
	}
}

// TestNilOpsAndRatesAreFree checks the uninstrumented layer: no clock
// read, nothing recorded, nothing allocated.
func TestNilOpsAndRatesAreFree(t *testing.T) {
	ops := NewOps(nil, "x_ns", "send")
	rates := NewRates(nil, "x_requests", "queue")
	if ops != nil || rates != nil {
		t.Fatal("a nil registry built non-nil instruments")
	}
	if start := ops.Start(); !start.IsZero() {
		t.Errorf("nil Ops.Start = %v, want the zero time", start)
	}
	if n := testing.AllocsPerRun(100, func() {
		ops.Done("send", ops.Start())
		ops.Observe("send", time.Millisecond)
		rates.Mark("q")
	}); n != 0 {
		t.Errorf("nil instruments allocate %.1f per call", n)
	}
	if got := rates.PerSecond("q"); got != 0 {
		t.Errorf("nil Rates.PerSecond = %v, want 0", got)
	}
}
