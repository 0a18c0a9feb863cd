// Command e2e is the repository's benchmark: it builds the full
// production path in one process — broker HTTP API → wire client →
// shard router → durable, replicated queue shards → journal → blob —
// runs one of five named workloads through it, verifies every output
// against a direct call into the app kernel, and prints every metric by
// name with unit, direction, bound and min/median/max over
// repetitions.
//
//	go run ./bench/e2e -workload <name|all> [-seed n] [-seconds s] [-trace 1] [-check] [-smoke]
//	go run ./bench/e2e -compare <before-dir>,<after-dir>
//
// Results go to bench/out/<workload>.json; a traced run (-trace 1)
// writes <workload>.trace.json and the spans to <workload>.trace.jsonl.
// The last line of standard output is one JSON object for the
// acceptance driver. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/bench/harness"
	"repro/bench/workloads"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	check    bool
	smoke    bool
	compare  string
	out      string
}

func main() {
	var o options
	var trace string
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 32, "how long to keep running timed repetitions")
	flag.StringVar(&trace, "trace", "0", "1 adds the interposers and reports per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.check, "check", false, "run the set twice and fail if any median pair differs by more than its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, one repetition: a correctness pass, not a measurement")
	flag.StringVar(&o.compare, "compare", "", "before-dir,after-dir: judge two result directories and exit")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "result directory")
	flag.Parse()
	var err error
	if o.trace, err = strconv.ParseBool(trace); err != nil {
		fatal(fmt.Errorf("-trace wants 0 or 1: %w", err))
	}

	switch {
	case o.compare != "":
		before, after, ok := strings.Cut(o.compare, ",")
		if !ok {
			fatal(errors.New("-compare wants before-dir,after-dir"))
		}
		if regressed, err := compareDirs(before, after, false); err != nil {
			fatal(err)
		} else if regressed {
			os.Exit(1)
		}
	case o.check:
		if err := check(o); err != nil {
			fatal(err)
		}
	case o.workload == "all":
		if err := runAll(o, o.out); err != nil {
			fatal(err)
		}
	default:
		spec, ok := workloads.Lookup(o.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names(), ", ")))
		}
		res, err := runWorkload(spec, o)
		if err != nil {
			fatal(err)
		}
		if err := report(res, o); err != nil {
			fatal(err)
		}
		if res.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench/e2e:", err)
	os.Exit(2)
}

func names() []string {
	var out []string
	for _, s := range workloads.All() {
		out = append(out, s.Name)
	}
	return out
}

// calibShare is the share of a run spent on calibration samples.
const calibShare = 0.12

// runWorkload sets the workload up, warms up once, repeats it on fresh
// stacks until the time budget is spent, and reduces the repetitions to
// a Result. The machine speed is sampled (harness.Calibrator) before
// every set-up pass and every repetition and after the last one.
func runWorkload(spec workloads.Spec, o options) (*harness.Result, error) {
	// calibrate samples the machine speed until calibration has had
	// calibShare of the run so far — a sample is a sixth of a second, a
	// repetition one to four, and the calibration's own jitter should
	// not be what limits the run's precision — and returns the mean of
	// the samples it took.
	var samples []float64
	calibrate := func() float64 { return harness.CalibReferenceMS }
	if !o.smoke {
		cal, err := harness.NewCalibrator()
		if err != nil {
			return nil, err
		}
		defer cal.Close()
		began := time.Now()
		var spent time.Duration
		calibrate = func() float64 {
			from := len(samples)
			for first := true; first || float64(spent) < calibShare*float64(time.Since(began)); first = false {
				start := time.Now()
				samples = append(samples, cal.Sample())
				spent += time.Since(start)
			}
			return harness.Mean(samples[from:])
		}
	}
	// slowdown is how much slower than the reference the machine read
	// just before and just after a piece of work.
	slowdown := func(before, after float64) float64 { return (before + after) / 2 / harness.CalibReferenceMS }

	// Inputs and reference outputs are made setUps times over and the
	// median time kept: one pass is a second or two, short enough for a
	// single slow spell of the machine to double it.
	setUps := 3
	if o.smoke {
		setUps = 1
	}
	var in *workloads.Inputs
	var ref []map[string][]byte
	var passes, passSlowdowns []float64
	speed := calibrate()
	for i := 0; i < setUps; i++ {
		start := time.Now()
		var err error
		if in, err = spec.Generate(o.seed, o.smoke); err != nil {
			return nil, err
		}
		if ref, err = workloads.Reference(in); err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(start).Seconds())
		before := speed
		speed = calibrate()
		passSlowdowns = append(passSlowdowns, slowdown(before, speed))
	}

	res := &harness.Result{
		Workload: spec.Name, Why: spec.Why, Shape: spec.Shape, Seed: o.seed, Smoke: o.smoke,
		Traced: o.trace, Env: harness.DetectEnv(), Sizes: in.Sizes, Tasks: in.Tasks,
		Workers: spec.WorkersPerInstance * len(in.Jobs), InputDigest: in.Digest,
		Overrides: overrides(spec),
	}
	var failures []string
	count := func(r *rep) {
		res.Attempted += r.tasks
		res.Failed += len(r.failures)
		res.CanonicalMatches += r.inexact
		failures = append(failures, r.failures...)
	}
	if !o.smoke {
		// One discarded repetition: first-use costs (listener set-up,
		// allocator growth, page faults) are not what users pay per job.
		warm, err := runRep(spec, in, ref, false, false)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", spec.Name, err)
		}
		count(warm)
		res.WarmUps = 1
	}

	// A traced run alternates untraced and traced repetitions so the
	// overhead compares like with like. Repetitions stop being started
	// once the next one would end past the budget.
	minEach := 3
	if o.smoke {
		minEach = 1
	} else if o.trace {
		minEach = 2
	}
	var plain, traced []*rep
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var longest time.Duration
	for i := 0; ; i++ {
		enough := len(plain) >= minEach && (!o.trace || len(traced) >= minEach)
		if enough && (o.smoke || time.Now().Add(longest).After(deadline)) {
			break
		}
		started := time.Now()
		before := speed
		if i == 0 {
			before = calibrate() // the warm-up lies between this and the set-up's last
		}
		withTrace := o.trace && i%2 == 1
		r, err := runRep(spec, in, ref, withTrace, o.smoke)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", spec.Name, i+1, err)
		}
		count(r)
		speed = calibrate()
		r.slowdown = slowdown(before, speed)
		if withTrace {
			if n := len(traced); n > 0 {
				traced[n-1].spans = nil // only the last traced repetition's spans are written
			}
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		longest = max(longest, time.Since(started))
	}
	res.Repetitions = len(plain) + len(traced)
	res.Calibration = harness.Calibration{
		ReferenceMS: harness.CalibReferenceMS, SamplesMS: samples,
		Slowdown: harness.Mean(samples) / harness.CalibReferenceMS,
	}
	for _, r := range plain {
		res.Calibration.RepSlowdowns = append(res.Calibration.RepSlowdowns, r.slowdown)
	}

	// End-to-end numbers come from the untraced repetitions only.
	res.EndToEnd = endToEnd(spec, plain, passes, passSlowdowns, len(samples) > 0)

	if o.trace {
		layer := make(map[string][]float64)
		for _, r := range traced {
			for name, v := range r.layers {
				layer[name] = append(layer[name], v)
			}
		}
		layer["trace.overhead_pct"] = []float64{100 * (1 - pooledRate(traced)/pooledRate(plain))}
		if rss, ok := res.Metric("peak_rss_mb"); ok {
			layer["proc.peak_rss_mb"] = []float64{rss.Value}
		}
		for _, m := range harness.PerLayer {
			v := layer[m.Name]
			if v == nil {
				v = []float64{0} // the layer is not on this workload's path
			}
			res.PerLayer = append(res.PerLayer, harness.NewMetricResult(m, harness.Median(v), v))
		}
		last := traced[len(traced)-1]
		res.Timings = last.timings
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		if err := harness.WriteSpans(filepath.Join(o.out, spec.Name+".trace.jsonl"), last.spans); err != nil {
			return nil, err
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	return res, nil
}

// pooledRate is tasks per second over all of reps: total tasks over
// total wall.
func pooledRate(reps []*rep) float64 {
	var tasks, wall float64
	for _, r := range reps {
		tasks += float64(r.tasks)
		wall += r.wall.Seconds()
	}
	return tasks / wall
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
// Each figure pools the repetitions (see harness.MetricResult.Value);
// the time-based ones are brought to the reference machine speed first,
// every repetition and set-up pass by the slowdown the calibration read
// right before and after it.
func endToEnd(spec workloads.Spec, reps []*rep, setupPasses, passSlowdowns []float64, calibrated bool) []harness.MetricResult {
	values := make(map[string][]float64)
	var tasks, wall, cpu, submit, queueReq, blobReq, recover, failed float64
	var bringUps []float64
	for _, r := range reps {
		n := float64(r.tasks)
		tasks += n
		wall += r.wall.Seconds() / r.slowdown
		cpu += float64(r.cpu) / 1e6 / r.slowdown
		submit += r.submit.Seconds() / r.slowdown
		recover += r.recover.Seconds() / r.slowdown
		queueReq += float64(r.queueReq)
		blobReq += float64(r.blobReq)
		failed += float64(len(r.failures))
		bringUps = append(bringUps, r.bringUp.Seconds()/r.slowdown)
		values["tasks_per_s"] = append(values["tasks_per_s"], n/r.wall.Seconds())
		values["submit_s"] = append(values["submit_s"], r.submit.Seconds())
		values["cpu_ms_per_task"] = append(values["cpu_ms_per_task"], float64(r.cpu)/1e6/n)
		values["queue_requests_per_task"] = append(values["queue_requests_per_task"], float64(r.queueReq)/n)
		values["blob_requests_per_task"] = append(values["blob_requests_per_task"], float64(r.blobReq)/n)
		if spec.Restart {
			values["recover_s"] = append(values["recover_s"], r.recover.Seconds())
		}
		values["failed_share"] = append(values["failed_share"], float64(len(r.failures))/n)
	}
	// Set-up is the median input-and-reference pass plus the median
	// stack bring-up (a fresh stack per repetition).
	values["setup_s"] = setupPasses
	scaledPasses := make([]float64, len(setupPasses))
	for i, p := range setupPasses {
		scaledPasses[i] = p / passSlowdowns[i]
	}
	rss := peakRSSMB()
	if calibrated {
		rss -= harness.CalibResidentMB // the calibration buffer is the harness's, always resident
	}
	values["peak_rss_mb"] = []float64{rss}
	n := float64(len(reps))
	figures := map[string]float64{
		"tasks_per_s":             tasks / wall,
		"submit_s":                submit / n,
		"cpu_ms_per_task":         cpu / tasks,
		"queue_requests_per_task": queueReq / tasks,
		"blob_requests_per_task":  blobReq / tasks,
		"peak_rss_mb":             rss,
		"setup_s":                 harness.Median(scaledPasses) + harness.Median(bringUps),
		"recover_s":               recover / n,
		"failed_share":            failed / tasks,
	}
	var out []harness.MetricResult
	for _, m := range harness.EndToEnd {
		if v, ok := values[m.Name]; ok {
			out = append(out, harness.NewMetricResult(m, figures[m.Name], v))
		}
	}
	return out
}

// overrides lists every setting that differs from what cmd/brokerd and
// cmd/queuerouter run with by default.
func overrides(spec workloads.Spec) map[string]string {
	ov := map[string]string{
		"broker.Autoscale":   "MinInstances=MaxInstances=1 per job (production 1..16): fixed fleet, closed loop",
		"wire.Options.Conns": "2 (default 4): sized for nproc=2",
		"telemetry":          "no registries on untraced runs (daemons always wire one); traced runs wire the blob stores' only",
	}
	if spec.WorkersPerInstance != 2 {
		ov["broker.WorkersPerInstance"] = fmt.Sprintf("%d (production 2): one worker per tenant", spec.WorkersPerInstance)
	}
	if spec.Visibility != 0 {
		ov["broker.VisibilityTimeout"] = spec.Visibility.String() + " (production 1m): the dead workers' leases must return within the run"
	}
	return ov
}

// report prints the result, writes its file, and ends with the
// acceptance driver's JSON line.
func report(res *harness.Result, o options) error {
	printResult(res)
	name := res.Workload + ".json"
	if res.Traced {
		name = res.Workload + ".trace.json"
	}
	if err := res.Write(filepath.Join(o.out, name)); err != nil {
		return err
	}
	fmt.Println(driverLine(res))
	return nil
}

func printResult(res *harness.Result) {
	e := res.Env
	fmt.Printf("workload %s (shape %s, seed %d): %d tasks x %d repetitions (+%d warm-up), %d closed-loop workers\n",
		res.Workload, res.Shape, res.Seed, res.Tasks, res.Repetitions, res.WarmUps, res.Workers)
	fmt.Printf("  why: %s\n", res.Why)
	fmt.Printf("  env: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s\n", e.NProc, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Commit)
	fmt.Printf("  sizes: %v  input digest %s\n", res.Sizes, res.InputDigest[:16])
	if c := res.Calibration; len(c.SamplesMS) > 0 {
		fmt.Printf("  machine: calibration read %.2fx its reference time (%.0f ms, %d samples); time-based figures are scaled to the reference\n",
			c.Slowdown, c.ReferenceMS, len(c.SamplesMS))
	}
	printMetrics := func(title string, ms []harness.MetricResult, bounded bool) {
		if len(ms) == 0 {
			return
		}
		fmt.Printf("  %s\n", title)
		for _, m := range ms {
			bound := ""
			if bounded {
				bound = fmt.Sprintf(" bound %4.0f%%", 100*m.Bound)
			}
			fmt.Printf("    %-32s %12.4f %-8s (%s is better%s)  repetitions: min %.4f  median %.4f  max %.4f  n=%d  spread %.1f%%\n",
				m.Name, m.Value, m.Unit, m.Better, bound, m.Min, m.Median, m.Max, m.N, 100*m.Spread)
		}
	}
	printMetrics("end-to-end (tracing off; pooled over the repetitions):", res.EndToEnd, true)
	printMetrics("per-layer (median of the traced repetitions; never fed into the end-to-end table):", res.PerLayer, false)
	for name, t := range res.Timings {
		fmt.Printf("    timing %-28s n=%d  median %.3f  p%g %.3f\n", name, t.N, t.Median, t.TailPercentile, t.Tail)
	}
	fmt.Printf("  attempted %d tasks, failed %d", res.Attempted, res.Failed)
	if res.CanonicalMatches > 0 {
		fmt.Printf(" (%d outputs matched the reference in canonical form only: cap3.Run is order-dependent)", res.CanonicalMatches)
	}
	fmt.Println()
}

// driverLine is the last line of output: the end-to-end metrics every
// workload reports (untraced run) or every per-layer metric (traced).
func driverLine(res *harness.Result) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	if res.Traced {
		for _, m := range res.PerLayer {
			metrics[m.Name] = val{m.Median, m.Unit}
		}
	} else {
		for _, d := range harness.DriverEndToEnd() {
			if m, ok := res.Metric(d.Name); ok {
				metrics[m.Name] = val{m.Value, m.Unit}
			}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(line)
}

// runSet runs each named workload in a process of its own — peak_rss_mb
// is a per-process figure — writing results to out.
func runSet(o options, which []string, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, name := range which {
		args := []string{
			"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.FormatBool(o.trace), "-out", out,
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			failed = true // exit 1: it ran and reported failed tasks
		}
	}
	if failed {
		return errors.New("some workloads reported failed tasks")
	}
	return nil
}

// runAll runs every workload and prints the end-to-end durability tax.
func runAll(o options, out string) error {
	if err := runSet(o, names(), out); err != nil {
		return err
	}
	if o.trace {
		return nil
	}
	results, err := harness.LoadResults(out)
	if err != nil {
		return err
	}
	d, e := results["tiny_durable"], results["tiny_ephemeral"]
	if d != nil && e != nil {
		dm, _ := d.Metric("tasks_per_s")
		em, _ := e.Metric("tasks_per_s")
		if dm.Value > 0 {
			fmt.Printf("durability_tax_x %.3f (tiny_ephemeral %.1f tasks/s over tiny_durable %.1f tasks/s; ungated)\n",
				em.Value/dm.Value, em.Value, dm.Value)
		}
	}
	return nil
}

// checkRounds is how many times -check runs each side. The two sides
// alternate (first, second, first, …) so that the machine's slow drift
// — tens of percent over minutes on a shared VM — lands on both alike;
// each side's figure is the median over its rounds.
const checkRounds = 3

// check runs the set twice over, alternating, and fails if any metric's
// two medians differ by more than its bound in either direction.
func check(o options) error {
	o.trace = false
	which := names()
	if o.workload != "all" {
		if _, ok := workloads.Lookup(o.workload); !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		which = []string{o.workload}
	}
	first, second := filepath.Join(o.out, "check", "first"), filepath.Join(o.out, "check", "second")
	if err := os.RemoveAll(filepath.Join(o.out, "check")); err != nil {
		return err
	}
	for round := 1; round <= checkRounds; round++ {
		for _, side := range []string{first, second} {
			if err := runSet(o, which, filepath.Join(side, fmt.Sprintf("round-%d", round))); err != nil {
				return err
			}
		}
	}
	regressed, err := compareDirs(first, second, true)
	if err != nil {
		return err
	}
	if regressed {
		return errors.New("two sets of runs of the same code disagree by more than a bound")
	}
	return nil
}

// compareDirs prints both medians per workload and metric. With
// symmetric set, a difference in either direction beyond the bound
// counts (two runs of one commit); otherwise only after being worse
// than before does (a later PR's before/after).
func compareDirs(beforeDir, afterDir string, symmetric bool) (bool, error) {
	before, err := harness.LoadResults(beforeDir)
	if err != nil {
		return false, err
	}
	after, err := harness.LoadResults(afterDir)
	if err != nil {
		return false, err
	}
	verdicts := harness.Compare(before, after)
	if symmetric {
		back := harness.Compare(after, before)
		for i := range verdicts {
			if back[i].Regressed {
				verdicts[i].Regressed = true
			}
		}
	}
	regressed := false
	fmt.Printf("%-16s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, v := range verdicts {
		mark := ""
		if v.Regressed {
			mark, regressed = "  <-- beyond bound", true
		}
		fmt.Printf("%-16s %-26s %14.4f %14.4f %8.1f%% %6.0f%%%s\n",
			v.Workload, v.Metric.Name, v.Before, v.After, 100*v.Worse, 100*v.Metric.Bound, mark)
	}
	return regressed, nil
}
