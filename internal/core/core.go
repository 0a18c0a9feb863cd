// Package core is the paper's primary artifact: a pleasingly parallel
// application framework that runs "an executable over a set of input
// files" on interchangeable execution substrates — the Classic Cloud
// model (queue + blob storage + independent workers), Hadoop-style
// MapReduce, and DryadLINQ-style static partitions. Applications are
// written once against the Application interface and submitted through a
// Runner; every backend provides the same contract (each input file is
// processed at least once, outputs are collected by input name) with its
// own scheduling and fault-tolerance strategy, which is exactly the
// comparison surface of the paper.
package core

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/classiccloud"
	"repro/internal/dryad"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/queue"
)

// Application is the unit the framework distributes: the paper's
// "executable program that takes input in the form of a file".
// Process must be safe for concurrent calls and idempotent — backends
// may execute a file more than once.
type Application interface {
	// Name identifies the application in queue/bucket/path names.
	Name() string
	// Process transforms one input file into one output file.
	Process(name string, input []byte) ([]byte, error)
}

// SharedDataApplication additionally requires reference data staged to
// every worker before processing begins — the BLAST database pattern.
type SharedDataApplication interface {
	Application
	// SharedData returns named reference blobs to distribute.
	SharedData() map[string][]byte
	// LoadShared is invoked with the staged blobs before any Process
	// call. Backends guarantee at-least-once; implementations must make
	// it idempotent.
	LoadShared(files map[string][]byte) error
}

// FuncApp adapts a function to Application.
type FuncApp struct {
	AppName string
	Fn      func(name string, input []byte) ([]byte, error)
}

// Name implements Application.
func (a FuncApp) Name() string { return a.AppName }

// Process implements Application.
func (a FuncApp) Process(name string, input []byte) ([]byte, error) { return a.Fn(name, input) }

// RunResult is the common result shape of every backend.
type RunResult struct {
	Backend string
	Outputs map[string][]byte // keyed by input file name
	Elapsed time.Duration
	Detail  map[string]string // backend-specific counters for reporting
}

// Runner executes an application over a file set on one substrate.
type Runner interface {
	Backend() string
	Run(app Application, files map[string][]byte) (*RunResult, error)
}

// ErrNoInput is returned when a run has no files.
var ErrNoInput = errors.New("core: no input files")

// ---------------------------------------------------------------------------
// Classic Cloud backend
// ---------------------------------------------------------------------------

// ClassicCloudRunner runs jobs on the queue/blob Classic Cloud model.
type ClassicCloudRunner struct {
	// Instances is the number of simulated VMs; WorkersPerInstance the
	// worker processes each runs (the paper's "Instances × Workers").
	Instances          int
	WorkersPerInstance int
	// Env supplies the cloud services; nil builds fresh in-process ones.
	Env *classiccloud.Env
	// Timeout bounds the whole job (default 2 minutes).
	Timeout time.Duration
	// VisibilityTimeout for task leases (default from classiccloud).
	VisibilityTimeout time.Duration
}

// Backend implements Runner.
func (r ClassicCloudRunner) Backend() string { return "classic-cloud" }

// Run implements Runner.
func (r ClassicCloudRunner) Run(app Application, files map[string][]byte) (*RunResult, error) {
	if len(files) == 0 {
		return nil, ErrNoInput
	}
	if r.Instances <= 0 {
		r.Instances = 1
	}
	if r.WorkersPerInstance <= 0 {
		r.WorkersPerInstance = 1
	}
	if r.Timeout == 0 {
		r.Timeout = 2 * time.Minute
	}
	env := r.Env
	if env == nil {
		env = &classiccloud.Env{
			Blob:  blob.NewStore(blob.Config{}),
			Queue: queue.NewService(queue.Config{}),
		}
	}
	start := time.Now()
	cfg := classiccloud.Config{
		JobName:           app.Name(),
		VisibilityTimeout: r.VisibilityTimeout,
	}
	client := classiccloud.NewClient(*env, cfg)
	if err := client.Setup(); err != nil {
		return nil, err
	}

	exec, err := r.buildExecutor(app, env)
	if err != nil {
		return nil, err
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
		inst, err := classiccloud.StartInstance(*env, cfg, exec, r.WorkersPerInstance)
		if err != nil {
			return nil, err
		}
		instances = append(instances, inst)
	}
	report, err := client.WaitForCompletion(tasks, r.Timeout)
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

// buildExecutor wraps the application as a Classic Cloud executor,
// staging shared data through blob storage when required.
func (r ClassicCloudRunner) buildExecutor(app Application, env *classiccloud.Env) (classiccloud.Executor, error) {
	sda, needsShared := app.(SharedDataApplication)
	if !needsShared {
		return classiccloud.FuncExecutor{
			AppName: app.Name(),
			Fn: func(task classiccloud.Task, input []byte) ([]byte, error) {
				return app.Process(task.ID, input)
			},
		}, nil
	}
	sharedBucket := app.Name() + "-shared"
	if err := env.Blob.CreateBucket(sharedBucket); err != nil && !errors.Is(err, blob.ErrBucketExists) {
		return nil, err
	}
	for k, v := range sda.SharedData() {
		if err := env.Blob.Put(sharedBucket, k, v); err != nil {
			return nil, err
		}
	}
	return &preloadingExecutor{app: sda, bucket: sharedBucket}, nil
}

// preloadingExecutor downloads shared data from blob storage at instance
// startup — the paper's "each worker will download the specified file
// from the cloud storage at the time of startup".
type preloadingExecutor struct {
	app    SharedDataApplication
	bucket string
	once   sync.Once
	err    error
}

func (p *preloadingExecutor) Name() string { return p.app.Name() }

func (p *preloadingExecutor) Preload(env classiccloud.Env) error {
	p.once.Do(func() {
		keys, err := env.Blob.List(p.bucket, "")
		if err != nil {
			p.err = err
			return
		}
		staged := make(map[string][]byte, len(keys))
		for _, k := range keys {
			data, err := env.Blob.GetConsistent(p.bucket, k)
			if err != nil {
				p.err = err
				return
			}
			staged[k] = data
		}
		p.err = p.app.LoadShared(staged)
	})
	return p.err
}

func (p *preloadingExecutor) Execute(task classiccloud.Task, input []byte) ([]byte, error) {
	return p.app.Process(task.ID, input)
}

// ---------------------------------------------------------------------------
// MapReduce backend
// ---------------------------------------------------------------------------

// MapReduceRunner runs jobs on the Hadoop-style substrate.
type MapReduceRunner struct {
	Nodes        int
	SlotsPerNode int
	Speculative  bool
	Replication  int
}

// Backend implements Runner.
func (r MapReduceRunner) Backend() string { return "hadoop-mapreduce" }

// Run implements Runner.
func (r MapReduceRunner) Run(app Application, files map[string][]byte) (*RunResult, error) {
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
	fs := hdfs.NewFS(names, hdfs.Config{ReplicationFactor: r.Replication})
	cluster := mapreduce.NewCluster(fs, r.SlotsPerNode)

	inputDir := "/" + app.Name() + "/in"
	outputDir := "/" + app.Name() + "/out"
	var inputs []string
	for name, data := range files {
		p := inputDir + "/" + name
		if err := fs.Write(p, data, ""); err != nil {
			return nil, err
		}
		inputs = append(inputs, p)
	}

	cfg := mapreduce.JobConfig{
		Name:        app.Name(),
		Input:       inputs,
		Format:      mapreduce.FileNameInputFormat{},
		Speculative: r.Speculative,
	}
	var shared sync.Once
	var sharedErr error
	sda, needsShared := app.(SharedDataApplication)
	if needsShared {
		cacheDir := "/" + app.Name() + "/cache"
		for k, v := range sda.SharedData() {
			p := cacheDir + "/" + k
			if err := fs.Write(p, v, ""); err != nil {
				return nil, err
			}
			cfg.CacheFiles = append(cfg.CacheFiles, p)
		}
	}
	// The map function mirrors the paper's Hadoop implementation: copy
	// the input file out of HDFS, run the executable, store the result
	// back to HDFS; the emitted pair only records the output location.
	cfg.Map = func(ctx *mapreduce.TaskContext, key string, value []byte, emit func(string, []byte)) error {
		if needsShared {
			shared.Do(func() { sharedErr = sda.LoadShared(ctx.Cache) })
			if sharedErr != nil {
				return sharedErr
			}
		}
		data, err := ctx.FS.Read(string(value), ctx.Node)
		if err != nil {
			return err
		}
		out, err := app.Process(key, data)
		if err != nil {
			return err
		}
		outPath := outputDir + "/" + key
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
		data, err := fs.Read(outputDir+"/"+name, "")
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

// ---------------------------------------------------------------------------
// DryadLINQ backend
// ---------------------------------------------------------------------------

// DryadRunner runs jobs on the static-partition substrate.
type DryadRunner struct {
	Nodes        int
	SlotsPerNode int
}

// Backend implements Runner.
func (r DryadRunner) Backend() string { return "dryadlinq" }

// Run implements Runner.
func (r DryadRunner) Run(app Application, files map[string][]byte) (*RunResult, error) {
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

	// Shared data: manual distribution to every node's local directory,
	// as the paper did for the BLAST database on Windows shares.
	var shared sync.Once
	var sharedErr error
	sda, needsShared := app.(SharedDataApplication)
	if needsShared {
		for _, node := range names {
			for k, v := range sda.SharedData() {
				if err := cluster.Store().Put(node, "shared/"+k, v); err != nil {
					return nil, err
				}
			}
		}
	}
	table, err := cluster.DistributeFiles(app.Name()+"-input", files)
	if err != nil {
		return nil, err
	}
	out, stats, err := cluster.Select(table, app.Name()+"-output",
		func(ctx *dryad.VertexContext, name string, data []byte) ([]byte, error) {
			if needsShared {
				shared.Do(func() {
					staged := make(map[string][]byte)
					keys, err := cluster.Store().List(ctx.Node)
					if err != nil {
						sharedErr = err
						return
					}
					for _, k := range keys {
						if strings.HasPrefix(k, "shared/") {
							v, err := cluster.Store().Get(ctx.Node, k)
							if err != nil {
								sharedErr = err
								return
							}
							staged[path.Base(k)] = v
						}
					}
					sharedErr = sda.LoadShared(staged)
				})
				if sharedErr != nil {
					return nil, sharedErr
				}
			}
			return app.Process(name, data)
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
		outputs[strings.TrimSuffix(name, ".out")] = data
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
