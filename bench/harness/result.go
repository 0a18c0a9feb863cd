package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Metric declares one reported number: its unit, which direction is
// better, and — for end-to-end metrics — the share of the baseline
// median by which it may worsen before that counts as a regression.
// Moves says which end-to-end metric a per-layer metric should move, on
// which workload (written down before measuring; see bench/README.md).
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// EndToEnd is the gated metric set, measured with tracing off. The
// first five are what BENCHMARK.json declares to the acceptance driver.
// The rest are gated by this command's own -check and -compare only:
// recover_s exists on restart_recover alone and failed_share is 0 on
// every healthy run, which the driver's contract (every metric on every
// workload, never 0) cannot carry; submit_s — one call per job, a fifth
// of a second on cap3_fat — and peak_rss_mb — the high-water mark of a
// garbage-collected heap, 460 to 620 MB on mixed_tenants with the same
// code — did not repeat within a tenth however long the run, so by the
// issue's rule they go to the driver as the per-layer broker.submit_s
// and proc.peak_rss_mb (a slower submit still shows in tasks_per_s,
// whose timed section starts at the first Submit call).
//
// The time-based ones (all but the two request counts, peak_rss_mb and
// failed_share) are reported at the calibration's reference machine
// speed; see Calibrator.
var EndToEnd = []Metric{
	{Name: "tasks_per_s", Unit: "tasks/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_task", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queue_requests_per_task", Unit: "req", Better: "lower", Bound: 0.15},
	{Name: "blob_requests_per_task", Unit: "req", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "submit_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// DriverEndToEnd is the subset of EndToEnd every workload reports and
// BENCHMARK.json lists.
func DriverEndToEnd() []Metric { return EndToEnd[:5] }

const (
	onTiny    = "tasks_per_s, cpu_ms_per_task on tiny_durable and tiny_ephemeral equally; not cap3_fat"
	onDurable = "blob_requests_per_task, tasks_per_s, cpu_ms_per_task on tiny_durable; restart_recover; exactly 0 on tiny_ephemeral"
)

// PerLayer is the attribution set of the traced run, layer = module
// name. Ungated: these explain an end-to-end change, they do not
// accept or reject one.
var PerLayer = []Metric{
	{Name: "app.exec_s", Unit: "s", Better: "lower", Moves: "tasks_per_s, cpu_ms_per_task on cap3_fat, mixed_tenants; ~0 share on tiny_*"},
	{Name: "app.exec_ms_p50", Unit: "ms", Better: "lower", Moves: "as app.exec_s"},
	{Name: "app.exec_ms_tail", Unit: "ms", Better: "lower", Moves: "as app.exec_s"},
	{Name: "app.executions", Unit: "count", Better: "lower", Moves: "cpu_ms_per_task when re-execution appears"},
	{Name: "app.useful_ratio", Unit: "ratio", Better: "higher", Moves: "cpu_ms_per_task; 1 unless tasks re-execute"},

	{Name: "broker.submit_s", Unit: "s", Better: "lower", Moves: "tasks_per_s on tiny_* (about half the wall); the end-to-end submit_s of a traced repetition"},
	{Name: "broker.submit_self_s", Unit: "s", Better: "lower", Moves: "submit_s, tasks_per_s on tiny_*"},
	{Name: "broker.first_task_ms", Unit: "ms", Better: "lower", Moves: "tasks_per_s on short jobs"},
	{Name: "broker.finish_lag_ms", Unit: "ms", Better: "lower", Moves: "tasks_per_s everywhere (tick-quantised)"},
	{Name: "broker.journal_events_per_task", Unit: "count", Better: "lower", Moves: "blob_requests_per_task"},
	{Name: "broker.scale_events", Unit: "count", Better: "lower", Moves: "none expected (fixed fleet)"},
	{Name: "broker.recover_s", Unit: "s", Better: "lower", Moves: "recover_s, tasks_per_s on restart_recover"},

	{Name: "classiccloud.utilization", Unit: "ratio", Better: "higher", Moves: "tasks_per_s everywhere"},
	{Name: "classiccloud.idle_worker_s", Unit: "s", Better: "lower", Moves: "tasks_per_s everywhere"},
	{Name: "classiccloud.duplicates", Unit: "count", Better: "lower", Moves: "failed_share, cpu_ms_per_task"},
	{Name: "classiccloud.dead", Unit: "count", Better: "lower", Moves: "failed_share"},

	{Name: "wire.calls", Unit: "count", Better: "lower", Moves: onTiny},
	{Name: "wire.self_s", Unit: "s", Better: "lower", Moves: onTiny},
	{Name: "wire.self_us_per_call", Unit: "us", Better: "lower", Moves: onTiny},
	{Name: "wire.send_p50_us", Unit: "us", Better: "lower", Moves: "submit_s on tiny_*"},
	{Name: "wire.send_tail_us", Unit: "us", Better: "lower", Moves: "submit_s on tiny_*"},
	{Name: "wire.recv_hit_p50_us", Unit: "us", Better: "lower", Moves: onTiny},
	{Name: "wire.recv_hit_tail_us", Unit: "us", Better: "lower", Moves: onTiny},
	{Name: "wire.unavailable", Unit: "count", Better: "lower", Moves: "failed_share; 0 on a healthy run"},

	{Name: "shard.calls", Unit: "count", Better: "lower", Moves: onTiny},
	{Name: "shard.self_s", Unit: "s", Better: "lower", Moves: onTiny},
	{Name: "shard.self_us_per_call", Unit: "us", Better: "lower", Moves: onTiny},
	{Name: "shard.shards_touched", Unit: "count", Better: "higher", Moves: "1 on single-job workloads, 2 on mixed_tenants"},
	{Name: "shard.busiest_share", Unit: "ratio", Better: "lower", Moves: "tasks_per_s on mixed_tenants"},

	{Name: "queue.calls", Unit: "count", Better: "lower", Moves: "queue_requests_per_task everywhere"},
	{Name: "queue.busy_s", Unit: "s", Better: "lower", Moves: "tasks_per_s on tiny_*"},
	{Name: "queue.self_s", Unit: "s", Better: "lower", Moves: "tasks_per_s on tiny_*"},
	{Name: "queue.empty_receive_ratio", Unit: "ratio", Better: "lower", Moves: "queue_requests_per_task everywhere"},
	{Name: "queue.msgs_per_receive", Unit: "count", Better: "higher", Moves: "queue_requests_per_task everywhere"},
	{Name: "queue.longpoll_wait_s", Unit: "s", Better: "lower", Moves: "queue_requests_per_task (idle polls)"},
	{Name: "queue.stale_receipts", Unit: "count", Better: "lower", Moves: "failed_share; 0 unless leases expire"},
	{Name: "queue.redelivered", Unit: "count", Better: "lower", Moves: "cpu_ms_per_task; the abandoned leases on restart_recover, else 0"},

	{Name: "journal.appends_per_task", Unit: "count", Better: "lower", Moves: onDurable},
	{Name: "journal.bytes_per_append", Unit: "B", Better: "lower", Moves: onDurable},
	{Name: "journal.write_amp", Unit: "ratio", Better: "lower", Moves: onDurable},
	{Name: "journal.snapshots", Unit: "count", Better: "lower", Moves: "tasks_per_s on tiny_durable; recover_s"},
	{Name: "journal.probe_append_us_p50", Unit: "us", Better: "lower", Moves: onDurable},
	{Name: "journal.probe_append_us_tail", Unit: "us", Better: "lower", Moves: onDurable},
	{Name: "journal.probe_load_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "recover_s on restart_recover"},

	{Name: "blob.job_requests_per_task", Unit: "req", Better: "lower", Moves: "blob_requests_per_task everywhere"},
	{Name: "blob.job_busy_s", Unit: "s", Better: "lower", Moves: "tasks_per_s on mixed_tenants (large objects)"},
	{Name: "blob.job_mb_in", Unit: "MB", Better: "lower", Moves: "tasks_per_s, peak_rss_mb on mixed_tenants"},
	{Name: "blob.job_mb_out", Unit: "MB", Better: "lower", Moves: "tasks_per_s on mixed_tenants"},
	{Name: "blob.journal_busy_s", Unit: "s", Better: "lower", Moves: "tasks_per_s on tiny_durable (appends under one Store.mu)"},
	{Name: "blob.journal_mb_in", Unit: "MB", Better: "lower", Moves: onDurable},
	{Name: "blob.journal_mb_out", Unit: "MB", Better: "lower", Moves: "cpu_ms_per_task on tiny_durable (follower tail reads)"},
	{Name: "blob.not_found_reads", Unit: "count", Better: "lower", Moves: "blob_requests_per_task; 0 with strong consistency"},

	{Name: "proc.alloc_kb_per_task", Unit: "KB", Better: "lower", Moves: "cpu_ms_per_task, peak_rss_mb"},
	{Name: "proc.mallocs_per_task", Unit: "count", Better: "lower", Moves: "cpu_ms_per_task"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "tasks_per_s"},
	{Name: "proc.cpu_user_s", Unit: "s", Better: "lower", Moves: "cpu_ms_per_task"},
	{Name: "proc.cpu_sys_s", Unit: "s", Better: "lower", Moves: "cpu_ms_per_task (loopback syscalls)"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "the end-to-end peak_rss_mb of the traced run: process max RSS less the calibration buffer"},

	{Name: "residual.worker_s", Unit: "s", Better: "lower", Moves: "what no layer's self time explains"},
	{Name: "residual.share", Unit: "ratio", Better: "lower", Moves: "as residual.worker_s, over workers x wall"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none; size of the trace"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none; traced vs untraced tasks_per_s"},
}

// MetricResult is one metric's outcome over the repetitions of a run.
type MetricResult struct {
	Metric
	// Value is the run's figure, the one that is compared and gated. An
	// end-to-end metric pools its repetitions — total tasks over total
	// wall, total CPU over total tasks — because a job is only seen
	// completed on a broker tick, which quantises a single repetition's
	// wall in 200 ms steps, and the median of quantised values jumps
	// where their sum does not; time-based ones are then scaled to the
	// reference machine speed. A per-layer metric is the median of the
	// traced repetitions.
	Value float64 `json:"value"`
	// Summary and Spread (interquartile range over median) describe the
	// per-repetition values, raw as measured.
	Summary
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// NewMetricResult records value as m's figure for the run beside the
// per-repetition values it came from.
func NewMetricResult(m Metric, value float64, values []float64) MetricResult {
	return MetricResult{Metric: m, Value: value, Summary: Summarize(values), Spread: Spread(values), Values: values}
}

// Calibration is the machine-speed record of a run: the calibration
// samples taken between its set-up passes and repetitions, and their
// mean as a multiple of the reference. Each repetition and set-up pass
// was scaled by the samples right before and after it; Slowdown
// summarises them.
type Calibration struct {
	ReferenceMS  float64   `json:"reference_ms"`
	SamplesMS    []float64 `json:"samples_ms"`
	Slowdown     float64   `json:"slowdown_x"`
	RepSlowdowns []float64 `json:"repetition_slowdowns_x"` // untraced repetitions, in order
}

// Env records where a result was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// DetectEnv fills Env from the running process. The commit comes from
// the build's embedded VCS stamp; a build outside a git checkout (the
// acceptance driver's) reports "unknown".
func DetectEnv() Env {
	e := Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// Result is one workload's result file.
type Result struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Shape       Shape             `json:"shape"`
	Seed        int64             `json:"seed"`
	Smoke       bool              `json:"smoke,omitempty"`
	Traced      bool              `json:"traced"`
	Env         Env               `json:"env"`
	Sizes       map[string]int    `json:"sizes"`
	Tasks       int               `json:"tasks_per_repetition"`
	Workers     int               `json:"workers"`
	InputDigest string            `json:"input_digest"`
	Overrides   map[string]string `json:"overrides_from_production"`
	Calibration Calibration       `json:"calibration"`
	WarmUps     int               `json:"warm_ups"`
	Repetitions int               `json:"repetitions"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	// CanonicalMatches counts outputs that equalled the reference only
	// in cap3's run-stable form (see workloads.Matches); they are not
	// failures.
	CanonicalMatches int            `json:"outputs_matched_in_canonical_form"`
	EndToEnd         []MetricResult `json:"end_to_end,omitempty"`
	PerLayer         []MetricResult `json:"per_layer,omitempty"`
	// Timings carries the sample counts and the percentile actually
	// used behind every *_p50 / *_tail per-layer metric.
	Timings map[string]Timing `json:"timings,omitempty"`
}

// Metric looks up an end-to-end metric result by name.
func (r *Result) Metric(name string) (MetricResult, bool) {
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return MetricResult{}, false
}

// Write stores the result as indented JSON, creating the directory.
func (r *Result) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadResults reads every untraced result file (<workload>.json) of a
// directory, keyed by workload. A directory that holds no result files
// itself but subdirectories that do — the rounds of a -check, or
// several runs of one commit — is read as the median over them: each
// metric's values become the rounds' figures.
func LoadResults(dir string) (map[string]*Result, error) {
	out, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(out) > 0 {
		return out, nil
	}
	subs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var rounds []map[string]*Result
	for _, sub := range subs {
		if r, err := loadDir(sub); err != nil {
			return nil, err
		} else if len(r) > 0 {
			rounds = append(rounds, r)
		}
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("harness: no result files in %s", dir)
	}
	return mergeRounds(rounds), nil
}

func loadDir(dir string) (map[string]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result)
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", p, err)
		}
		out[r.Workload] = &r
	}
	return out, nil
}

// mergeRounds reduces several runs of the same workloads to one result
// per workload whose metric values are the runs' figures and whose
// figure is their median.
func mergeRounds(rounds []map[string]*Result) map[string]*Result {
	out := make(map[string]*Result)
	for _, round := range rounds {
		for w, r := range round {
			m := out[w]
			if m == nil {
				c := *r
				c.EndToEnd, c.Attempted, c.Failed = nil, 0, 0
				for _, e := range r.EndToEnd {
					c.EndToEnd = append(c.EndToEnd, MetricResult{Metric: e.Metric})
				}
				m = &c
				out[w] = m
			}
			m.Attempted += r.Attempted
			m.Failed += r.Failed
			for i := range m.EndToEnd {
				if e, ok := r.Metric(m.EndToEnd[i].Name); ok {
					m.EndToEnd[i].Values = append(m.EndToEnd[i].Values, e.Value)
				}
			}
		}
	}
	for _, m := range out {
		for i, e := range m.EndToEnd {
			m.EndToEnd[i] = NewMetricResult(e.Metric, Median(e.Values), e.Values)
		}
	}
	return out
}

// Verdict is one (workload, metric) row of a comparison.
type Verdict struct {
	Workload string
	Metric   Metric
	Before   float64
	After    float64
	// Worse is how much worse After is than Before as a share of
	// Before (negative = better), in the metric's own direction.
	Worse float64
	// Regressed is Worse > Bound.
	Regressed bool
}

// Compare judges after against before on every end-to-end metric both
// report: a metric regresses when its figure is worse than the
// baseline's by more than its bound. A metric with bound 0
// (failed_share) regresses on any worsening. The same code serves
// -check (two runs of one commit, compared in both directions) and a
// later PR's before/after.
func Compare(before, after map[string]*Result) []Verdict {
	var out []Verdict
	names := make([]string, 0, len(before))
	for w := range before {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		b, a := before[w], after[w]
		if a == nil {
			continue
		}
		for _, bm := range b.EndToEnd {
			am, ok := a.Metric(bm.Name)
			if !ok {
				continue
			}
			v := Verdict{Workload: w, Metric: bm.Metric, Before: bm.Value, After: am.Value}
			diff := am.Value - bm.Value
			if bm.Better == "higher" {
				diff = -diff
			}
			switch {
			case bm.Value != 0:
				v.Worse = diff / math.Abs(bm.Value)
			case diff > 0:
				v.Worse = 1 // from a zero baseline any worsening is total
			}
			v.Regressed = v.Worse > bm.Bound
			out = append(out, v)
		}
	}
	return out
}
