package perfmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/cloud"
)

func TestTaskTimeCPUBound(t *testing.T) {
	cap3 := Cap3Model(200)
	// CPU-bound: faster clock → faster task, regardless of workers.
	hcxl := cap3.TaskTime(cloud.EC2HCXL, 8, 1, false)
	large := cap3.TaskTime(cloud.EC2Large, 2, 1, false)
	hm4xl := cap3.TaskTime(cloud.EC2HM4XL, 8, 1, false)
	if !(hm4xl < hcxl && hcxl < large) {
		t.Errorf("cap3 task times: HM4XL %.1f, HCXL %.1f, L %.1f; want HM4XL < HCXL < L",
			hm4xl, hcxl, large)
	}
}

func TestTaskTimeWindowsSpeedup(t *testing.T) {
	cap3 := Cap3Model(458)
	linux := cap3.TaskTime(cloud.EC2HCXL, 8, 1, false)
	windows := cap3.TaskTime(cloud.EC2HCXL, 8, 1, true)
	ratio := linux / windows
	if math.Abs(ratio-1.125) > 1e-9 {
		t.Errorf("windows speedup ratio = %.4f, want 1.125", ratio)
	}
}

func TestTaskTimeMemoryBandwidthContention(t *testing.T) {
	gtm := GTMModel(100000)
	// GTM is bandwidth-bound: more workers sharing one instance slow
	// each task down.
	alone := gtm.TaskTime(cloud.EC2HCXL, 1, 1, false)
	crowded := gtm.TaskTime(cloud.EC2HCXL, 8, 1, false)
	if crowded <= alone {
		t.Errorf("contention did not slow GTM: alone %.1f, 8 workers %.1f", alone, crowded)
	}
	// Cap3 is not bandwidth-bound: contention has no effect.
	cap3 := Cap3Model(200)
	if cap3.TaskTime(cloud.EC2HCXL, 8, 1, false) != cap3.TaskTime(cloud.EC2HCXL, 1, 1, false) {
		t.Error("cap3 should be insensitive to bandwidth contention")
	}
}

func TestTaskTimeMemoryCapacityPenalty(t *testing.T) {
	blast := BlastModel(100)
	// Azure Small (1.7 GB) pays a larger capacity penalty than Large (7 GB),
	// which pays more than XL (15 GB ≥ 8 GB DB → none).
	small := blast.TaskTime(cloud.AzureSmall, 1, 1, true)
	large := blast.TaskTime(cloud.AzureLarge, 4, 1, true)
	xl := blast.TaskTime(cloud.AzureExtraLarge, 8, 1, true)
	if !(xl < large && large < small) {
		t.Errorf("blast times: XL %.1f, L %.1f, S %.1f; want XL < L < S", xl, large, small)
	}
}

func TestThreadsSlightlySlowerThanProcesses(t *testing.T) {
	blast := BlastModel(100)
	// 8 files on one Azure XL: 8 workers × 1 thread versus 1 worker × 8
	// threads. Thread version must be slower but not catastrophically.
	procs := Simulate(RunSpec{
		App: blast, Framework: ClassicAzure, Instance: cloud.AzureExtraLarge,
		Instances: 1, WorkersPerInstance: 8, ThreadsPerWorker: 1, NFiles: 8, Seed: 1,
	})
	threads := Simulate(RunSpec{
		App: blast, Framework: ClassicAzure, Instance: cloud.AzureExtraLarge,
		Instances: 1, WorkersPerInstance: 1, ThreadsPerWorker: 8, NFiles: 8, Seed: 1,
	})
	if threads.Makespan <= procs.Makespan {
		t.Errorf("threads %.0fs should be slower than processes %.0fs",
			threads.Makespan.Seconds(), procs.Makespan.Seconds())
	}
	if float64(threads.Makespan) > 2*float64(procs.Makespan) {
		t.Errorf("threads %.0fs unreasonably slower than processes %.0fs",
			threads.Makespan.Seconds(), procs.Makespan.Seconds())
	}
}

func TestSimulateEfficiencyBounds(t *testing.T) {
	for _, spec := range []RunSpec{
		{App: Cap3Model(458), Framework: ClassicEC2, Instance: cloud.EC2HCXL, Instances: 16, NFiles: 512},
		{App: BlastModel(100), Framework: HadoopBareMetal, Instance: cloud.IDataPlexNode, Instances: 16, NFiles: 256},
		{App: GTMModel(100000), Framework: DryadLINQ, Instance: cloud.HPCNode, Instances: 8, NFiles: 264},
	} {
		out := Simulate(spec)
		if out.Efficiency <= 0 || out.Efficiency > 1.0001 {
			t.Errorf("%s: efficiency %.3f outside (0,1]", spec.Framework, out.Efficiency)
		}
		if out.Makespan <= 0 || out.Sequential <= 0 {
			t.Errorf("%s: non-positive times %v %v", spec.Framework, out.Makespan, out.Sequential)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	spec := RunSpec{App: Cap3Model(458), Framework: ClassicEC2,
		Instance: cloud.EC2HCXL, Instances: 4, NFiles: 64, Heterogeneity: 0.3, Seed: 5}
	a := Simulate(spec)
	b := Simulate(spec)
	if a.Makespan != b.Makespan || a.Efficiency != b.Efficiency {
		t.Error("simulation not deterministic for equal seeds")
	}
}

// naiveMakespan is the oracle for Simulate's scheduler: the same task
// times, each task in input order on the first of the workers that
// frees first, found by scanning every worker of its instance (all of
// the fleet under a dynamic queue, its own contiguous block under
// DryadLINQ's static partitions).
func naiveMakespan(spec RunSpec) time.Duration {
	ov := overheadsFor(spec.Framework)
	w := spec.workers()
	rng := rand.New(rand.NewSource(spec.Seed))
	mult := make([]float64, spec.NFiles)
	for i := range mult {
		mult[i] = 1
		if spec.Heterogeneity > 0 {
			mult[i] = math.Max(0.1, 1+rng.NormFloat64()*spec.Heterogeneity)
		}
	}
	if spec.SortedSkew {
		sort.Float64s(mult)
	}
	base := spec.App.TaskTime(spec.Instance, w, spec.ThreadsPerWorker, spec.Framework.Windows())
	fetch, upload := 0.0, 0.0
	if ov.storageMBps > 0 {
		fetch = ov.storageLatency + spec.App.InputMB/ov.storageMBps
		upload = ov.storageLatency + spec.App.OutputMB/ov.storageMBps
	} else if ov.localDiskMBps > 0 {
		fetch = spec.App.InputMB / ov.localDiskMBps
		upload = spec.App.OutputMB / ov.localDiskMBps
	}
	pools, block := 1, spec.NFiles
	if ov.static {
		pools, block = spec.Instances, (spec.NFiles+spec.Instances-1)/spec.Instances
	} else {
		w *= spec.Instances
	}
	free := make([][]float64, pools)
	for p := range free {
		free[p] = make([]float64, w)
	}
	end := 0.0
	for i, m := range mult {
		pool := free[i/block]
		first := 0
		for k := range pool {
			if pool[k] < pool[first] {
				first = k
			}
		}
		pool[first] += ov.taskDispatch + ov.queueOps + fetch + base*m + upload
		end = max(end, pool[first])
	}
	return secs(end + ov.jobStartup)
}

// TestSimulateMatchesNaiveScheduler holds Simulate's heap of free times
// to the oracle over every app, catalog type (and the bare-metal
// cluster node), framework, file count, fleet, heterogeneity and skew:
// the makespans agree to the nanosecond.
func TestSimulateMatchesNaiveScheduler(t *testing.T) {
	types := append(append(cloud.EC2Catalog(), cloud.AzureCatalog()...), cloud.ClusterNode32x8)
	n := 0
	for _, app := range []AppModel{Cap3Model(458), BlastModel(100), GTMModel(100000)} {
		for _, it := range types {
			for _, f := range []Framework{ClassicEC2, ClassicAzure, HadoopBareMetal, DryadLINQ} {
				for _, files := range []int{1, 7, 64, 255, 1024} {
					for _, fleet := range []int{1, 2, 3, 5, 8, 16, 33} {
						for _, het := range []float64{0, 0.3, 0.6} {
							for _, skew := range []bool{false, true} {
								spec := RunSpec{App: app, Framework: f, Instance: it, Instances: fleet,
									NFiles: files, Heterogeneity: het, SortedSkew: skew, Seed: int64(files + fleet)}
								if got, want := Simulate(spec).Makespan, naiveMakespan(spec); got != want {
									t.Fatalf("%s on %s %s x%d, %d files, heterogeneity %.1f, skew %v: makespan %v, oracle %v",
										app.Name, f, it.Key(), fleet, files, het, skew, got, want)
								}
								n++
							}
						}
					}
				}
			}
		}
	}
	if n != 22680 {
		t.Fatalf("%d specs, want the 22 680 of the grid", n)
	}
}

// TestSimulateAllocationsDoNotGrowWithTasks: a run allocates its task
// list and its workers' free times, not a record per task.
func TestSimulateAllocationsDoNotGrowWithTasks(t *testing.T) {
	allocs := func(files int) float64 {
		spec := RunSpec{App: Cap3Model(458), Framework: ClassicEC2, Instance: cloud.EC2HCXL,
			Instances: 16, NFiles: files}
		return testing.AllocsPerRun(20, func() { Simulate(spec) })
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Fatalf("Simulate allocates %.0f times for 64 homogeneous files and %.0f for 4096", small, large)
	}
}

func TestCap3InstanceStudyShape(t *testing.T) {
	rows := Cap3InstanceStudy()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byLabel := map[string]InstanceStudyRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	hm4xl := byLabel["HM4XL - 2 x 8"]
	hcxl := byLabel["HCXL - 2 x 8"]
	large := byLabel["Large - 8 x 2"]
	xl := byLabel["XL - 4 x 4"]
	// Figure 4 shape: HM4XL fastest (clock), then HCXL, then L ≈ XL.
	if !(hm4xl.ComputeTime < hcxl.ComputeTime && hcxl.ComputeTime < large.ComputeTime) {
		t.Errorf("time ordering broken: %+v", rows)
	}
	if large.ComputeTime != xl.ComputeTime {
		t.Errorf("Large %v and XL %v should tie (same clock)", large.ComputeTime, xl.ComputeTime)
	}
	// Figure 3 shape: HCXL most cost-effective, HM4XL most expensive.
	for _, r := range rows {
		if r.Label == "HCXL - 2 x 8" {
			continue
		}
		if hcxl.ComputeCost > r.ComputeCost {
			t.Errorf("HCXL ($%.2f) should be cheapest; %s costs $%.2f", hcxl.ComputeCost, r.Label, r.ComputeCost)
		}
	}
	if hm4xl.ComputeCost <= hcxl.ComputeCost {
		t.Error("HM4XL should cost more than HCXL")
	}
	// Amortized never exceeds hour-unit cost.
	for _, r := range rows {
		if r.Amortized > r.ComputeCost+1e-9 {
			t.Errorf("%s amortized %.2f > compute %.2f", r.Label, r.Amortized, r.ComputeCost)
		}
	}
}

func TestBlastInstanceStudyShape(t *testing.T) {
	rows := BlastInstanceStudy()
	byLabel := map[string]InstanceStudyRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Figure 8: HM4XL clearly fastest; HCXL comparable to L and XL
	// (within ~25%) despite < 1 GB memory per core.
	hm4xl := byLabel["HM4XL - 2 x 8"]
	hcxl := byLabel["HCXL - 2 x 8"]
	large := byLabel["Large - 8 x 2"]
	if hm4xl.ComputeTime >= hcxl.ComputeTime {
		t.Error("HM4XL should beat HCXL for BLAST")
	}
	ratio := float64(hcxl.ComputeTime) / float64(large.ComputeTime)
	if ratio > 1.3 || ratio < 0.7 {
		t.Errorf("HCXL/Large = %.2f; paper reports comparable performance", ratio)
	}
	// Figure 7: HCXL still the most cost-effective.
	for _, r := range rows {
		if r.Label != "HCXL - 2 x 8" && byLabel["HCXL - 2 x 8"].ComputeCost > r.ComputeCost {
			t.Errorf("HCXL should be cheapest; %s costs less", r.Label)
		}
	}
}

func TestGTMInstanceStudyShape(t *testing.T) {
	rows := GTMInstanceStudy()
	byLabel := map[string]InstanceStudyRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Figure 13: HM4XL best performance; HCXL worst (8 workers share the
	// least bandwidth per worker); Large does well.
	hm4xl := byLabel["HM4XL - 2 x 8"]
	hcxl := byLabel["HCXL - 2 x 8"]
	large := byLabel["Large - 8 x 2"]
	if hm4xl.ComputeTime > large.ComputeTime {
		t.Errorf("HM4XL %v should be ≤ Large %v", hm4xl.ComputeTime, large.ComputeTime)
	}
	if hcxl.ComputeTime <= large.ComputeTime {
		t.Errorf("HCXL %v should be slower than Large %v (bandwidth contention)", hcxl.ComputeTime, large.ComputeTime)
	}
}

func TestBlastAzureStudyShape(t *testing.T) {
	rows := BlastAzureStudy()
	if len(rows) != 1+2+3+4 {
		t.Fatalf("%d rows, want 10 (core decompositions)", len(rows))
	}
	// Figure 9: Large and XL (all-process configs) beat Small; pure
	// threads slightly worse than pure processes on the same type.
	var smallTime, largeProc, xlProc, xlThread time.Duration
	for _, r := range rows {
		switch {
		case r.InstanceType == "Small":
			smallTime = r.Time
		case r.InstanceType == "Large" && r.Workers == 4:
			largeProc = r.Time
		case r.InstanceType == "Extra Large" && r.Workers == 8:
			xlProc = r.Time
		case r.InstanceType == "Extra Large" && r.Workers == 1:
			xlThread = r.Time
		}
	}
	if largeProc >= smallTime || xlProc >= smallTime {
		t.Errorf("Large (%v) and XL (%v) should beat Small (%v)", largeProc, xlProc, smallTime)
	}
	if xlThread <= xlProc {
		t.Errorf("pure threads (%v) should be slightly slower than processes (%v)", xlThread, xlProc)
	}
}

func TestCap3ScalabilityShape(t *testing.T) {
	points := Cap3Scalability()
	if len(points) != 4*4 {
		t.Fatalf("%d points", len(points))
	}
	// Paper: all four implementations within ~20% efficiency, low
	// parallelization overhead.
	for _, p := range points {
		if p.Efficiency < 0.7 || p.Efficiency > 1.0001 {
			t.Errorf("%s at %d cores: efficiency %.3f outside [0.7, 1]", p.Framework, p.Cores, p.Efficiency)
		}
	}
	// Per-file-per-core time roughly flat across scale for each framework.
	byFw := map[string][]ScalabilityPoint{}
	for _, p := range points {
		byFw[p.Framework] = append(byFw[p.Framework], p)
	}
	for fw, ps := range byFw {
		first, last := ps[0].PerFilePerCore, ps[len(ps)-1].PerFilePerCore
		ratio := float64(last) / float64(first)
		if ratio > 1.3 || ratio < 0.77 {
			t.Errorf("%s per-file time drifts %.2f× across scale", fw, ratio)
		}
	}
}

func TestBlastScalabilityShape(t *testing.T) {
	points := BlastScalability()
	if len(points) != 6*4 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.Efficiency < 0.6 || p.Efficiency > 1.0001 {
			t.Errorf("%s at %d files: efficiency %.3f", p.Framework, p.Files, p.Efficiency)
		}
	}
	// Windows platforms (Azure, DryadLINQ) show the better overall
	// efficiency (Section 5.2).
	avg := map[string]float64{}
	n := map[string]int{}
	for _, p := range points {
		avg[p.Framework] += p.Efficiency
		n[p.Framework]++
	}
	for k := range avg {
		avg[k] /= float64(n[k])
	}
	if avg["Azure ClassicCloud"] <= avg["EC2 ClassicCloud"] {
		t.Errorf("Azure efficiency %.3f should beat EC2 %.3f for BLAST",
			avg["Azure ClassicCloud"], avg["EC2 ClassicCloud"])
	}
}

func TestGTMScalabilityShape(t *testing.T) {
	points := GTMScalability()
	// Azure Small achieves the overall best efficiency; EC2 Large beats
	// EC2 HCXL (Section 6.2).
	avg := map[string]float64{}
	n := map[string]int{}
	for _, p := range points {
		avg[p.Framework] += p.Efficiency
		n[p.Framework]++
	}
	for k := range avg {
		avg[k] /= float64(n[k])
	}
	azure := avg["Azure ClassicCloud/Small"]
	for fw, e := range avg {
		if fw == "Azure ClassicCloud/Small" {
			continue
		}
		if e > azure {
			t.Errorf("%s efficiency %.3f exceeds Azure Small %.3f; paper says Azure Small best", fw, e, azure)
		}
	}
	if avg["EC2 ClassicCloud/Large"] <= avg["EC2 ClassicCloud/High CPU Extra Large"] {
		t.Errorf("EC2 Large (%.3f) should beat HCXL (%.3f) on efficiency",
			avg["EC2 ClassicCloud/Large"], avg["EC2 ClassicCloud/High CPU Extra Large"])
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tbl := Table4CostComparison()
	// Compute lines must land exactly on the paper's numbers: both jobs
	// complete within one billed hour.
	if math.Abs(tbl.EC2Compute-10.88) > 1e-9 {
		t.Errorf("EC2 compute = %.2f, want 10.88 (makespan %v)", tbl.EC2Compute, tbl.EC2Makespan)
	}
	if math.Abs(tbl.AzureCompute-15.36) > 1e-9 {
		t.Errorf("Azure compute = %.2f, want 15.36 (makespan %v)", tbl.AzureCompute, tbl.AzureMakespan)
	}
	if tbl.EC2Makespan > time.Hour || tbl.AzureMakespan > time.Hour {
		t.Errorf("jobs must fit in one billed hour: %v, %v", tbl.EC2Makespan, tbl.AzureMakespan)
	}
	// Totals close to the paper's 11.13 / 15.77 (queue-request accounting
	// differs by cents).
	if math.Abs(tbl.EC2Total-11.13) > 0.05 {
		t.Errorf("EC2 total = %.2f, want ≈ 11.13", tbl.EC2Total)
	}
	if math.Abs(tbl.AzureTotal-15.77) > 0.05 {
		t.Errorf("Azure total = %.2f, want ≈ 15.77", tbl.AzureTotal)
	}
	// Cluster ordering: cost decreases with utilization; at 80% the
	// cluster undercuts EC2; Azure is the most expensive option.
	if !(tbl.ClusterCost[0.8] < tbl.ClusterCost[0.7] && tbl.ClusterCost[0.7] < tbl.ClusterCost[0.6]) {
		t.Errorf("cluster cost not monotone: %+v", tbl.ClusterCost)
	}
	if tbl.ClusterCost[0.8] >= tbl.EC2Total {
		t.Errorf("cluster@80%% (%.2f) should undercut EC2 (%.2f)", tbl.ClusterCost[0.8], tbl.EC2Total)
	}
	if tbl.EC2Total >= tbl.AzureTotal {
		t.Error("EC2 should undercut Azure")
	}
}

func TestInhomogeneousStudyShape(t *testing.T) {
	rows := InhomogeneousStudy()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Homogeneous: near parity. Heterogeneous: Dryad's static partitions
	// fall behind, increasingly with skew.
	if rows[0].Ratio > 1.1 {
		t.Errorf("homogeneous ratio = %.2f, want ≈ 1", rows[0].Ratio)
	}
	last := rows[len(rows)-1]
	if last.Ratio < 1.1 {
		t.Errorf("at heterogeneity %.1f, Dryad/Hadoop = %.2f; want > 1.1", last.Heterogeneity, last.Ratio)
	}
	if rows[1].Ratio > last.Ratio {
		t.Errorf("penalty should grow with skew: %+v", rows)
	}
}

func TestVariabilityStudyMatchesPaper(t *testing.T) {
	aws, azure := VariabilityStudy()
	if math.Abs(aws-1.56) > 0.6 {
		t.Errorf("AWS CV = %.2f%%, want ≈ 1.56%%", aws)
	}
	if math.Abs(azure-2.25) > 0.8 {
		t.Errorf("Azure CV = %.2f%%, want ≈ 2.25%%", azure)
	}
	if azure <= aws*0.8 {
		t.Errorf("Azure (%.2f%%) should be more variable than AWS (%.2f%%)", azure, aws)
	}
}

func TestSpecDefaults(t *testing.T) {
	out := Simulate(RunSpec{App: Cap3Model(100), Framework: ClassicEC2, Instance: cloud.EC2HCXL})
	if out.Makespan <= 0 {
		t.Error("zero-value spec should still simulate with defaults")
	}
}

func TestFrameworkString(t *testing.T) {
	for _, f := range []Framework{ClassicEC2, ClassicAzure, HadoopBareMetal, DryadLINQ} {
		if f.String() == "" {
			t.Error("empty framework name")
		}
	}
	if Framework(99).String() == "" {
		t.Error("unknown framework should still render")
	}
}

func TestAzureLinearityExplainsOmittedFigures(t *testing.T) {
	// Cap3 and GTM: cost×time flat across Azure types (within 10%), so
	// the paper omits their Azure instance studies.
	for _, app := range []AppModel{Cap3Model(458), GTMModel(100000)} {
		rows := AzureLinearityCheck(app)
		min, max := math.Inf(1), 0.0
		for _, r := range rows {
			if r.CostTimeProduct < min {
				min = r.CostTimeProduct
			}
			if r.CostTimeProduct > max {
				max = r.CostTimeProduct
			}
		}
		if max/min > 1.10 {
			t.Errorf("%s: Azure cost×time spread %.2f×; expected near-linear scaling", app.Name, max/min)
		}
	}
	// BLAST: the memory-capacity penalty breaks linearity (hence Figure 9).
	rows := AzureLinearityCheck(BlastModel(100))
	min, max := math.Inf(1), 0.0
	for _, r := range rows {
		if r.CostTimeProduct < min {
			min = r.CostTimeProduct
		}
		if r.CostTimeProduct > max {
			max = r.CostTimeProduct
		}
	}
	if max/min < 1.15 {
		t.Errorf("BLAST: Azure cost×time spread only %.2f×; memory effect missing", max/min)
	}
}
