package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/des"
)

// Framework identifies an execution style in the simulator.
type Framework int

// The frameworks the paper compares.
const (
	ClassicEC2 Framework = iota
	ClassicAzure
	HadoopBareMetal
	DryadLINQ
)

// String names the framework as the paper's figures label it.
func (f Framework) String() string {
	switch f {
	case ClassicEC2:
		return "EC2 ClassicCloud"
	case ClassicAzure:
		return "Azure ClassicCloud"
	case HadoopBareMetal:
		return "Hadoop"
	case DryadLINQ:
		return "DryadLINQ"
	}
	return fmt.Sprintf("Framework(%d)", int(f))
}

// Windows reports whether the platform runs Windows (Azure, DryadLINQ).
func (f Framework) Windows() bool { return f == ClassicAzure || f == DryadLINQ }

// frameworkOverheads captures the per-job and per-task costs of each
// execution style, in seconds.
type frameworkOverheads struct {
	jobStartup     float64 // one-time (excluded from T1, included in Tp)
	taskDispatch   float64 // scheduler handshake per task
	queueOps       float64 // queue receive+delete+monitor per task (classic only)
	storageLatency float64 // per blob request (classic only)
	storageMBps    float64 // blob transfer bandwidth (classic only)
	localDiskMBps  float64 // local-disk bandwidth (Hadoop/Dryad reads)
	static         bool    // static per-node partitioning (DryadLINQ)
}

func overheadsFor(f Framework) frameworkOverheads {
	switch f {
	case ClassicEC2:
		return frameworkOverheads{
			jobStartup: 5, taskDispatch: 0.05, queueOps: 0.15,
			storageLatency: 0.12, storageMBps: 50, localDiskMBps: 100,
		}
	case ClassicAzure:
		return frameworkOverheads{
			jobStartup: 5, taskDispatch: 0.05, queueOps: 0.18,
			storageLatency: 0.15, storageMBps: 40, localDiskMBps: 100,
		}
	case HadoopBareMetal:
		// JVM task launch dominates dispatch; data is node-local.
		return frameworkOverheads{
			jobStartup: 12, taskDispatch: 1.0, localDiskMBps: 200,
		}
	case DryadLINQ:
		return frameworkOverheads{
			jobStartup: 8, taskDispatch: 0.3, localDiskMBps: 200, static: true,
		}
	}
	return frameworkOverheads{}
}

// RunSpec describes one simulated execution.
type RunSpec struct {
	App       AppModel
	Framework Framework
	Instance  cloud.InstanceType
	Instances int
	// WorkersPerInstance defaults to the instance's core count divided by
	// ThreadsPerWorker.
	WorkersPerInstance int
	ThreadsPerWorker   int // >1 only for the BLAST Azure study
	NFiles             int
	// Heterogeneity is the coefficient of variation of per-task content
	// cost (0 = replicated homogeneous files).
	Heterogeneity float64
	// SortedSkew orders task costs ascending across the input list — the
	// "skewed distributed inhomogeneous data" case of the paper's load
	// balancing study [13], where static contiguous partitions
	// concentrate the expensive files on few nodes.
	SortedSkew bool
	Seed       int64
}

func (s RunSpec) workers() int {
	w := s.WorkersPerInstance
	if w <= 0 {
		t := s.ThreadsPerWorker
		if t <= 0 {
			t = 1
		}
		w = s.Instance.Cores / t
		if w <= 0 {
			w = 1
		}
	}
	return w
}

// TotalCores returns the core count P used in Equation 1.
func (s RunSpec) TotalCores() int { return s.Instances * s.Instance.Cores }

// Outcome is one simulated run's results.
type Outcome struct {
	Spec        RunSpec
	Makespan    time.Duration // Tp
	Sequential  time.Duration // T1 = N × per-task time on one idle core
	Efficiency  float64       // Equation 1
	PerCoreTime time.Duration // Equation 2
	Bill        cloud.Bill
	// QueueRequests estimates billable queue API calls (classic only).
	QueueRequests int
	// TransferredGB estimates storage traffic (classic only).
	TransferredGB float64
}

// Simulate runs the spec through the discrete-event simulator.
func Simulate(spec RunSpec) Outcome {
	if spec.Instances <= 0 {
		spec.Instances = 1
	}
	if spec.NFiles <= 0 {
		spec.NFiles = 1
	}
	ov := overheadsFor(spec.Framework)
	rng := rand.New(rand.NewSource(spec.Seed))
	workersPerInstance := spec.workers()
	windows := spec.Framework.Windows()

	// Per-task content multipliers (file-content-dependent runtimes).
	mult := make([]float64, spec.NFiles)
	for i := range mult {
		m := 1.0
		if spec.Heterogeneity > 0 {
			m = math.Max(0.1, 1+rng.NormFloat64()*spec.Heterogeneity)
		}
		mult[i] = m
	}
	if spec.SortedSkew {
		sort.Float64s(mult)
	}

	baseTask := spec.App.TaskTime(spec.Instance, workersPerInstance, spec.ThreadsPerWorker, windows)

	// Transfer times.
	inMB, outMB := spec.App.InputMB, spec.App.OutputMB
	fetch := 0.0
	upload := 0.0
	if ov.storageMBps > 0 {
		fetch = ov.storageLatency + inMB/ov.storageMBps
		upload = ov.storageLatency + outMB/ov.storageMBps
	} else if ov.localDiskMBps > 0 {
		fetch = inMB / ov.localDiskMBps
		upload = outMB / ov.localDiskMBps
	}

	sim := des.New()
	totalWorkers := spec.Instances * workersPerInstance

	var makespan float64
	if ov.static {
		// DryadLINQ: the partitioning tool slices the input list into
		// contiguous per-node blocks ahead of time; each instance
		// processes only its own partition, however expensive it is.
		perInstance := make([][]int, spec.Instances)
		block := (spec.NFiles + spec.Instances - 1) / spec.Instances
		for i := 0; i < spec.NFiles; i++ {
			perInstance[i/block] = append(perInstance[i/block], i)
		}
		for inst := 0; inst < spec.Instances; inst++ {
			res := des.NewResource(sim, workersPerInstance)
			for _, fileIdx := range perInstance[inst] {
				idx := fileIdx
				res.Acquire(func(release func()) {
					d := ov.taskDispatch + fetch + baseTask*mult[idx] + upload
					sim.Schedule(d, release)
				})
			}
		}
		makespan = sim.Run() + ov.jobStartup
	} else {
		// Dynamic global queue: every worker pulls the next task.
		res := des.NewResource(sim, totalWorkers)
		for i := 0; i < spec.NFiles; i++ {
			idx := i
			res.Acquire(func(release func()) {
				d := ov.taskDispatch + ov.queueOps + fetch + baseTask*mult[idx] + upload
				sim.Schedule(d, release)
			})
		}
		makespan = sim.Run() + ov.jobStartup
	}

	// Sequential baseline: every file on one idle core of the same
	// platform, local input (no transfers, no queue) — the paper's T1.
	seqTask := spec.App.SequentialTaskTime(spec.Instance, windows)
	seq := 0.0
	for _, m := range mult {
		seq += seqTask * m
	}

	out := Outcome{
		Spec:       spec,
		Makespan:   secs(makespan),
		Sequential: secs(seq),
	}
	out.Efficiency = ParallelEfficiency(out.Sequential, out.Makespan, spec.TotalCores())
	out.PerCoreTime = PerCoreTime(out.Makespan, spec.TotalCores(), spec.NFiles)
	out.Bill = cloud.ComputeBill(spec.Instance, spec.Instances, out.Makespan)
	if spec.Framework == ClassicEC2 || spec.Framework == ClassicAzure {
		// send + receive + delete per task, plus monitor messages: the
		// paper's unbatched model (Table 4), kept on purpose. The
		// classiccloud implementation batches all four and bills about
		// 1.05 requests per task.
		out.QueueRequests = spec.NFiles * 4
		out.TransferredGB = float64(spec.NFiles) * (inMB + outMB) / 1024
	}
	return out
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// VariabilitySample models the sustained-performance study of [12]: the
// normalized daily performance of a fixed benchmark over a week, with
// the provider-specific jitter the paper reports (σ 1.56% AWS, 2.25%
// Azure) and no day-of-week trend.
func VariabilitySample(f Framework, days, samplesPerDay int, seed int64) []float64 {
	sigma := 0.0156
	if f == ClassicAzure {
		sigma = 0.0225
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, days*samplesPerDay)
	for d := 0; d < days; d++ {
		for s := 0; s < samplesPerDay; s++ {
			out = append(out, 1+rng.NormFloat64()*sigma)
		}
	}
	return out
}
