// Package core is the paper's primary artifact: a pleasingly parallel
// application framework that runs "an executable over a set of input
// files" on interchangeable execution substrates — the Classic Cloud
// model (queue + blob storage + independent workers), Hadoop-style
// MapReduce, and DryadLINQ-style static partitions. An application is
// written once as an apps.App and submitted, with its input files and
// its shared reference data, through a Runner; every backend provides
// the same contract (the shared data is staged to the workers and the
// application opened once, each input file is then processed at least
// once, outputs are collected by input name) with its own staging,
// scheduling and fault-tolerance strategy, which is exactly the
// comparison surface of the paper. The broker's registry opens the same
// apps.App values, so one workload can be fed to all four runtimes.
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/blob"
	"repro/internal/classiccloud"
	"repro/internal/dryad"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/queue"
)

// RunResult is the common result shape of every backend.
type RunResult struct {
	Backend string
	Outputs map[string][]byte // keyed by input file name
	Elapsed time.Duration
	Detail  map[string]string // backend-specific counters for reporting
}

// WriteDetail prints the backend's counters, one "  name=value" line
// each, in name order.
func (r *RunResult) WriteDetail(w io.Writer) {
	for _, k := range sortedNames(r.Detail) {
		fmt.Fprintf(w, "  %s=%s\n", k, r.Detail[k])
	}
}

// Runner executes an application over a file set on one substrate.
// shared is the application's reference data (the BLAST database, the
// trained GTM model), nil for an application that needs none.
type Runner interface {
	Backend() string
	Run(app apps.App, files, shared map[string][]byte) (*RunResult, error)
}

// NewRunner returns the runner a -backend flag names, with workers
// spread over two instances or nodes.
func NewRunner(backend string, workers int) (Runner, error) {
	perNode := (workers + 1) / 2
	for _, r := range []Runner{
		ClassicCloudRunner{Instances: 2, WorkersPerInstance: perNode},
		MapReduceRunner{Nodes: 2, SlotsPerNode: perNode},
		DryadRunner{Nodes: 2, SlotsPerNode: perNode},
	} {
		if r.Backend() == backend {
			return r, nil
		}
	}
	return nil, fmt.Errorf("core: unknown backend %q (classic-cloud | hadoop-mapreduce | dryadlinq)", backend)
}

// ErrNoInput is returned when a run has no files.
var ErrNoInput = errors.New("core: no input files")

// sortedNames returns a map's keys in order. Every runner stages inputs
// and shared data in this order, so two runs of one job place, schedule
// and report identically.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// opener opens a job's application exactly once, from the shared data
// as the first worker to need it finds it staged; every later worker
// gets the same per-file function, or the same error.
type opener struct {
	app     apps.App
	once    sync.Once
	process apps.Process
	err     error
}

func (o *opener) open(staged func() (map[string][]byte, error)) (apps.Process, error) {
	o.once.Do(func() {
		shared, err := staged()
		if err != nil {
			o.err = err
			return
		}
		o.process, o.err = o.app.Open(shared)
	})
	return o.process, o.err
}

// ---------------------------------------------------------------------------
// Classic Cloud backend
// ---------------------------------------------------------------------------

// ClassicCloudRunner runs jobs on the queue/blob Classic Cloud model,
// over fresh in-process cloud services.
type ClassicCloudRunner struct {
	// Instances is the number of simulated VMs; WorkersPerInstance the
	// worker processes each runs (the paper's "Instances × Workers").
	Instances          int
	WorkersPerInstance int
}

// classicCloudTimeout bounds a whole Classic Cloud job.
const classicCloudTimeout = 2 * time.Minute

// Backend implements Runner.
func (r ClassicCloudRunner) Backend() string { return "classic-cloud" }

// Run implements Runner.
func (r ClassicCloudRunner) Run(app apps.App, files, shared map[string][]byte) (*RunResult, error) {
	if len(files) == 0 {
		return nil, ErrNoInput
	}
	if r.Instances <= 0 {
		r.Instances = 1
	}
	if r.WorkersPerInstance <= 0 {
		r.WorkersPerInstance = 1
	}
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{}),
	}
	start := time.Now()
	cfg := classiccloud.Config{JobName: app.Name}
	client := classiccloud.NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		return nil, err
	}
	// Shared data travels through blob storage and is read back by each
	// instance as it starts.
	exec := &preloadingExecutor{opener: opener{app: app}, bucket: app.Name + "-shared"}
	if err := env.Blob.CreateBucket(exec.bucket); err != nil {
		return nil, err
	}
	for _, name := range sortedNames(shared) {
		if err := env.Blob.Put(exec.bucket, name, shared[name]); err != nil {
			return nil, err
		}
	}
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		return nil, err
	}
	instances := make([]*classiccloud.Instance, 0, r.Instances)
	defer func() {
		for _, inst := range instances {
			inst.Stop()
		}
	}()
	for i := 0; i < r.Instances; i++ {
		inst, err := classiccloud.StartInstance(env, cfg, exec, r.WorkersPerInstance)
		if err != nil {
			return nil, err
		}
		instances = append(instances, inst)
	}
	report, err := client.WaitForCompletion(tasks, classicCloudTimeout)
	if err != nil {
		return nil, err
	}
	outputs, err := client.CollectOutputs(tasks)
	if err != nil {
		return nil, err
	}
	executed := int64(0)
	for _, inst := range instances {
		executed += inst.Stats().TasksExecuted.Load()
	}
	return &RunResult{
		Backend: r.Backend(),
		Outputs: outputs,
		Elapsed: time.Since(start),
		Detail: map[string]string{
			"instances":      fmt.Sprint(r.Instances),
			"workers":        fmt.Sprint(r.Instances * r.WorkersPerInstance),
			"tasks_executed": fmt.Sprint(executed),
			"duplicates":     fmt.Sprint(report.Duplicates),
			"queue_requests": fmt.Sprint(report.QueueRequests),
		},
	}, nil
}

// preloadingExecutor downloads shared data from blob storage at instance
// startup — the paper's "each worker will download the specified file
// from the cloud storage at the time of startup".
type preloadingExecutor struct {
	opener
	bucket string
}

func (p *preloadingExecutor) Name() string { return p.app.Name }

func (p *preloadingExecutor) Preload(env classiccloud.Env) error {
	_, err := p.open(func() (map[string][]byte, error) {
		keys, err := env.Blob.List(p.bucket, "")
		if err != nil {
			return nil, err
		}
		staged := make(map[string][]byte, len(keys))
		for _, k := range keys {
			if staged[k], err = env.Blob.GetConsistent(p.bucket, k); err != nil {
				return nil, err
			}
		}
		return staged, nil
	})
	return err
}

// Execute runs after Preload has returned without error, so the
// application is open.
func (p *preloadingExecutor) Execute(task classiccloud.Task, input []byte) ([]byte, error) {
	return p.process(task.ID, input)
}

// ---------------------------------------------------------------------------
// MapReduce backend
// ---------------------------------------------------------------------------

// MapReduceRunner runs jobs on the Hadoop-style substrate, over a fresh
// HDFS at its default replication.
type MapReduceRunner struct {
	Nodes        int
	SlotsPerNode int
	Speculative  bool
}

// Backend implements Runner.
func (r MapReduceRunner) Backend() string { return "hadoop-mapreduce" }

// Run implements Runner.
func (r MapReduceRunner) Run(app apps.App, files, shared map[string][]byte) (*RunResult, error) {
	if len(files) == 0 {
		return nil, ErrNoInput
	}
	if r.Nodes <= 0 {
		r.Nodes = 4
	}
	if r.SlotsPerNode <= 0 {
		r.SlotsPerNode = 1
	}
	start := time.Now()
	names := make([]string, 0, r.Nodes)
	for i := 0; i < r.Nodes; i++ {
		names = append(names, fmt.Sprintf("node%03d", i))
	}
	fs := hdfs.NewFS(names, hdfs.Config{})
	cluster := mapreduce.NewCluster(fs, r.SlotsPerNode)

	outputDir := "/" + app.Name + "/out/"
	cfg := mapreduce.JobConfig{Name: app.Name, Speculative: r.Speculative}
	var err error
	if cfg.Input, err = stageHDFS(fs, "/"+app.Name+"/in/", files); err != nil {
		return nil, err
	}
	// Shared data rides the distributed cache: one copy per node.
	if cfg.CacheFiles, err = stageHDFS(fs, "/"+app.Name+"/cache/", shared); err != nil {
		return nil, err
	}
	// The map function mirrors the paper's Hadoop implementation: copy
	// the input file out of HDFS, run the executable, store the result
	// back to HDFS; the emitted pair only records the output location.
	o := &opener{app: app}
	cfg.Map = func(ctx *mapreduce.TaskContext, key string, value []byte, emit func(string, []byte)) error {
		process, err := o.open(func() (map[string][]byte, error) { return ctx.Cache, nil })
		if err != nil {
			return err
		}
		data, err := ctx.FS.Read(string(value))
		if err != nil {
			return err
		}
		out, err := process(key, data)
		if err != nil {
			return err
		}
		outPath := outputDir + key
		if !ctx.FS.Exists(outPath) { // idempotent across speculative attempts
			if err := ctx.FS.Write(outPath, out, ctx.Node); err != nil && !errors.Is(err, hdfs.ErrFileExists) {
				return err
			}
		}
		emit(key, []byte(outPath))
		return nil
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	outputs := make(map[string][]byte, len(files))
	for name := range files {
		data, err := fs.Read(outputDir + name)
		if err != nil {
			return nil, fmt.Errorf("core: collecting %s: %w", name, err)
		}
		outputs[name] = data
	}
	return &RunResult{
		Backend: r.Backend(),
		Outputs: outputs,
		Elapsed: time.Since(start),
		Detail: map[string]string{
			"nodes":             fmt.Sprint(r.Nodes),
			"slots_per_node":    fmt.Sprint(r.SlotsPerNode),
			"attempts":          fmt.Sprint(res.Stats.Attempts),
			"data_local":        fmt.Sprint(res.Stats.DataLocalTasks),
			"locality_fraction": fmt.Sprintf("%.2f", res.Stats.LocalityFraction()),
			"speculative":       fmt.Sprint(res.Stats.SpeculativeLaunched),
		},
	}, nil
}

// stageHDFS writes a file set under dir, in name order, and returns the
// paths. The order is what the filesystem's seeded replica placement and
// the scheduler's pending queue see, so it must not be a map's.
func stageHDFS(fs *hdfs.FS, dir string, files map[string][]byte) ([]string, error) {
	paths := make([]string, 0, len(files))
	for _, name := range sortedNames(files) {
		if err := fs.Write(dir+name, files[name], ""); err != nil {
			return nil, err
		}
		paths = append(paths, dir+name)
	}
	return paths, nil
}

// ---------------------------------------------------------------------------
// DryadLINQ backend
// ---------------------------------------------------------------------------

// DryadRunner runs jobs on the static-partition substrate.
type DryadRunner struct {
	Nodes        int
	SlotsPerNode int
}

// sharedDir prefixes shared data in a Dryad node's local directory.
const sharedDir = "shared/"

// Backend implements Runner.
func (r DryadRunner) Backend() string { return "dryadlinq" }

// Run implements Runner.
func (r DryadRunner) Run(app apps.App, files, shared map[string][]byte) (*RunResult, error) {
	if len(files) == 0 {
		return nil, ErrNoInput
	}
	if r.Nodes <= 0 {
		r.Nodes = 4
	}
	if r.SlotsPerNode <= 0 {
		r.SlotsPerNode = 1
	}
	start := time.Now()
	names := make([]string, 0, r.Nodes)
	for i := 0; i < r.Nodes; i++ {
		names = append(names, fmt.Sprintf("hpc%03d", i))
	}
	cluster := dryad.NewCluster(names, r.SlotsPerNode)
	store := cluster.Store()

	// Shared data: manual distribution to every node's local directory,
	// as the paper did for the BLAST database on Windows shares.
	for _, node := range names {
		for _, name := range sortedNames(shared) {
			if err := store.Put(node, sharedDir+name, shared[name]); err != nil {
				return nil, err
			}
		}
	}
	table, err := cluster.DistributeFiles(app.Name+"-input", files)
	if err != nil {
		return nil, err
	}
	o := &opener{app: app}
	out, stats, err := cluster.Select(table, app.Name+"-output",
		func(ctx *dryad.VertexContext, name string, data []byte) ([]byte, error) {
			process, err := o.open(func() (map[string][]byte, error) {
				keys, err := store.List(ctx.Node)
				if err != nil {
					return nil, err
				}
				staged := make(map[string][]byte)
				for _, k := range keys {
					if strings.HasPrefix(k, sharedDir) {
						if staged[strings.TrimPrefix(k, sharedDir)], err = store.Get(ctx.Node, k); err != nil {
							return nil, err
						}
					}
				}
				return staged, nil
			})
			if err != nil {
				return nil, err
			}
			return process(name, data)
		}, dryad.SelectOptions{})
	if err != nil {
		return nil, err
	}
	collected, err := cluster.Collect(out)
	if err != nil {
		return nil, err
	}
	outputs := make(map[string][]byte, len(files))
	for name, data := range collected {
		outputs[strings.TrimSuffix(name, dryad.OutputSuffix)] = data
	}
	return &RunResult{
		Backend: r.Backend(),
		Outputs: outputs,
		Elapsed: time.Since(start),
		Detail: map[string]string{
			"nodes":     fmt.Sprint(r.Nodes),
			"slots":     fmt.Sprint(r.SlotsPerNode),
			"attempts":  fmt.Sprint(stats.Attempts),
			"imbalance": fmt.Sprintf("%.2f", stats.Imbalance()),
		},
	}, nil
}

// Verify checks that a result covers every input exactly and none are
// empty unless the application legitimately produced empty output.
func Verify(files map[string][]byte, res *RunResult) error {
	if res == nil {
		return errors.New("core: nil result")
	}
	if len(res.Outputs) != len(files) {
		return fmt.Errorf("core: %d outputs for %d inputs", len(res.Outputs), len(files))
	}
	for name := range files {
		if _, ok := res.Outputs[name]; !ok {
			return fmt.Errorf("core: missing output for %s", name)
		}
	}
	return nil
}
