package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bench/harness"
	"repro/bench/workloads"
)

// The smoke size runs all five workloads — both deployment shapes, the
// kill-and-recover drill included — with zero loss, untraced and traced,
// fast enough for tier 1.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, spec := range workloads.All() {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(spec, options{seed: 1, smoke: true, trace: trace, out: out})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", spec.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace=%v): attempted %d, failed %d", spec.Name, trace, res.Attempted, res.Failed)
			}
			for _, want := range harness.DriverEndToEnd() {
				m, ok := res.Metric(want.Name)
				if !ok || m.Value <= 0 {
					t.Errorf("%s (trace=%v): end-to-end metric %s = %v (present %v), want > 0", spec.Name, trace, want.Name, m.Value, ok)
				}
			}
			if _, ok := res.Metric("recover_s"); ok != spec.Restart {
				t.Errorf("%s: recover_s reported = %v, want %v", spec.Name, ok, spec.Restart)
			}
			if !trace {
				continue
			}
			layer := map[string]float64{}
			for _, m := range res.PerLayer {
				layer[m.Name] = m.Value
			}
			if len(layer) != len(harness.PerLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", spec.Name, len(layer), len(harness.PerLayer))
			}
			wantShards := 1.0
			if spec.Name == "mixed_tenants" {
				wantShards = 2
			}
			if layer["shard.shards_touched"] != wantShards {
				t.Errorf("%s: shards_touched = %v, want %v", spec.Name, layer["shard.shards_touched"], wantShards)
			}
			if durable := spec.Shape == harness.ShapeFull; (layer["journal.appends_per_task"] > 0) != durable {
				t.Errorf("%s: journal.appends_per_task = %v on shape %s", spec.Name, layer["journal.appends_per_task"], spec.Shape)
			}
			if layer["app.useful_ratio"] != 1 || layer["wire.unavailable"] != 0 || layer["queue.stale_receipts"] != 0 {
				t.Errorf("%s: useful_ratio %v, unavailable %v, stale %v", spec.Name,
					layer["app.useful_ratio"], layer["wire.unavailable"], layer["queue.stale_receipts"])
			}
			if spec.Restart && layer["queue.redelivered"] == 0 {
				t.Errorf("%s: no redelivery seen after the kill", spec.Name)
			}
			if _, err := os.Stat(filepath.Join(out, spec.Name+".trace.jsonl")); err != nil {
				t.Errorf("%s: %v", spec.Name, err)
			}
		}
	}
}

// End-to-end figures pool the repetitions, each brought to the
// reference machine speed by its own slowdown first.
func TestEndToEndPoolsAndScales(t *testing.T) {
	spec, _ := workloads.Lookup("cap3_fat")
	reps := []*rep{
		// Read on a machine twice as slow as the reference: 100 tasks in 4 s.
		{tasks: 100, wall: 4 * time.Second, cpu: 8 * time.Second, submit: 2 * time.Second, slowdown: 2, queueReq: 210, blobReq: 500},
		// At the reference speed: 100 tasks in 2 s.
		{tasks: 100, wall: 2 * time.Second, cpu: 4 * time.Second, submit: time.Second, slowdown: 1, queueReq: 190, blobReq: 500},
	}
	got := map[string]float64{}
	for _, m := range endToEnd(spec, reps, []float64{3, 1.5, 8}, []float64{2, 1, 4}, false) {
		got[m.Name] = m.Value
	}
	want := map[string]float64{
		"tasks_per_s": 50, "cpu_ms_per_task": 40, "submit_s": 1,
		"queue_requests_per_task": 2, "blob_requests_per_task": 5, "setup_s": 1.5,
	}
	for name, w := range want {
		if g := got[name]; math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

// BENCHMARK.json declares exactly what the command reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []harness.Metric `json:"end_to_end"`
		PerLayer  []harness.Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	specs := workloads.Declared()
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if decl.Workloads[i].Name != s.Name || decl.Workloads[i].Why != s.Why {
			t.Errorf("workload %d: declared %+v, defined %s / %s", i, decl.Workloads[i], s.Name, s.Why)
		}
	}
	same := func(kind string, declared, defined []harness.Metric) {
		if len(declared) != len(defined) {
			t.Errorf("%s: %d declared, %d defined", kind, len(declared), len(defined))
			return
		}
		for i, d := range defined {
			d.Moves = "" // prose lives in bench/README.md
			if declared[i] != d {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, declared[i], d)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, harness.DriverEndToEnd())
	same("per_layer", decl.PerLayer, harness.PerLayer)
}

// The driver line carries exactly the declared metrics for its mode.
func TestDriverLine(t *testing.T) {
	spec, _ := workloads.Lookup("tiny_ephemeral")
	for _, trace := range []bool{false, true} {
		res, err := runWorkload(spec, options{seed: 2, smoke: true, trace: trace, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		want := harness.DriverEndToEnd()
		if trace {
			want = harness.PerLayer
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: %+v, want %d metrics", trace, line, len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s = %+v (present %v)", trace, m.Name, got, ok)
			}
		}
	}
}
