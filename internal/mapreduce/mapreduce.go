// Package mapreduce implements a Hadoop-0.20-style MapReduce runtime on
// top of the simulated HDFS, with the features the paper's analysis
// rests on: dynamic scheduling through a global task queue (natural load
// balancing), data-locality-aware task placement, speculative execution
// of straggler tasks, re-execution of failed tasks, a distributed cache
// for shared side data (the BLAST database), and the paper's custom
// InputFormat/RecordReader pair, which hands the *file name and path* to
// the map function instead of file contents, so legacy executables can
// be driven per file.
//
// Jobs are map-only. The paper's applications are "an executable over a
// set of input files": each map task writes its own output file and
// nothing is shuffled or reduced, so the runtime has no reduce phase and
// no other input format — no program would select either.
package mapreduce

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hdfs"
)

// KV is one key/value pair.
type KV struct {
	Key   string
	Value []byte
}

// MapFunc consumes one input record and emits zero or more pairs.
// ctx carries the executing node, the filesystem, and cached side files.
type MapFunc func(ctx *TaskContext, key string, value []byte, emit func(k string, v []byte)) error

// TaskContext is passed to user functions.
type TaskContext struct {
	Node    string            // node executing the task
	Attempt int               // 1-based attempt number
	FS      *hdfs.FS          // the cluster filesystem
	Cache   map[string][]byte // distributed-cache files, keyed by base name
}

// split is one map task's input: the paper's custom
// InputFormat/RecordReader hands the map function the file *name* as key
// and the HDFS *path* as value, while locality metadata is kept for the
// scheduler. The map task itself copies the file out of HDFS, as the
// paper's map implementation does.
type split struct {
	key       string
	value     []byte
	preferred []string // nodes holding the data
}

// fileSplits produces one split per input path.
func fileSplits(fs *hdfs.FS, inputs []string) ([]split, error) {
	out := make([]split, 0, len(inputs))
	for _, p := range inputs {
		if !fs.Exists(p) {
			return nil, fmt.Errorf("%w: %s", hdfs.ErrNoSuchFile, p)
		}
		pref, err := fs.PreferredNodes(p)
		if err != nil {
			return nil, err
		}
		out = append(out, split{key: path.Base(p), value: []byte(p), preferred: pref})
	}
	return out, nil
}

// JobConfig describes one job.
type JobConfig struct {
	Name        string   // the emitted pairs are written to /out/<Name>/part-00000
	Input       []string // HDFS paths, one map task each
	Map         MapFunc
	Speculative bool     // enable speculative duplicates of stragglers
	CacheFiles  []string // HDFS paths staged to every node before maps run
}

const (
	// maxAttempts is how many attempts a task gets before it fails the
	// job.
	maxAttempts = 4
	// speculativeAfter is how long a task must have run before it is a
	// speculation candidate.
	speculativeAfter = 50 * time.Millisecond
)

// Stats aggregates job execution counters.
type Stats struct {
	MapTasks            int
	Attempts            int
	Retries             int
	DataLocalTasks      int
	NonLocalTasks       int
	SpeculativeLaunched int
	SpeculativeWon      int // speculative attempt committed before original
	TaskDurations       []time.Duration
}

// LocalityFraction is the share of map attempts that ran data-local.
func (s Stats) LocalityFraction() float64 {
	total := s.DataLocalTasks + s.NonLocalTasks
	if total == 0 {
		return 0
	}
	return float64(s.DataLocalTasks) / float64(total)
}

// Result is a completed job.
type Result struct {
	Stats   Stats
	Output  string // HDFS path of the part file: one "key\tvalue" line per emitted pair, sorted
	Elapsed time.Duration
}

// Cluster is a set of task trackers over one filesystem.
type Cluster struct {
	fs           *hdfs.FS
	slotsPerNode int
}

// NewCluster creates a compute cluster over every datanode of fs with
// the given map slots per node (the paper's "workers per node").
func NewCluster(fs *hdfs.FS, slotsPerNode int) *Cluster {
	if slotsPerNode <= 0 {
		slotsPerNode = 1
	}
	return &Cluster{fs: fs, slotsPerNode: slotsPerNode}
}

// taskState tracks one map task through the scheduler.
type taskState struct {
	id        int
	split     split
	attempts  int
	startedAt time.Time // most recent attempt start
	running   int       // live attempts
	done      bool
	failed    error
}

// Run executes a job to completion.
func (c *Cluster) Run(cfg JobConfig) (*Result, error) {
	start := time.Now()
	if cfg.Map == nil {
		return nil, errors.New("mapreduce: job has no map function")
	}
	if len(cfg.Input) == 0 {
		return nil, errors.New("mapreduce: job has no inputs")
	}
	splits, err := fileSplits(c.fs, cfg.Input)
	if err != nil {
		return nil, err
	}

	// Stage the distributed cache once per node.
	caches, err := c.stageCaches(cfg.CacheFiles)
	if err != nil {
		return nil, err
	}

	sched := &scheduler{
		cfg:     cfg,
		pending: make([]*taskState, len(splits)),
		byID:    make(map[int]*taskState, len(splits)),
	}
	for i, s := range splits {
		ts := &taskState{id: i, split: s}
		sched.pending[i] = ts
		sched.byID[i] = ts
	}
	sched.stats.MapTasks = len(splits)

	// The pairs of committed attempts; a rival attempt of a committed
	// task is discarded.
	var emitted []KV
	var emitMu sync.Mutex
	commitMap := func(t *taskState, kvs []KV) bool {
		if !sched.tryCommit(t) {
			return false // a rival attempt committed first
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		emitted = append(emitted, kvs...)
		return true
	}

	// Task trackers: slotsPerNode workers per live node.
	var wg sync.WaitGroup
	for _, node := range c.fs.LiveNodes() {
		for s := 0; s < c.slotsPerNode; s++ {
			wg.Add(1)
			go func(node string) {
				defer wg.Done()
				c.trackerLoop(node, cfg, sched, caches[node], commitMap)
			}(node)
		}
	}
	wg.Wait()
	if err := sched.jobError(); err != nil {
		return nil, err
	}

	sort.SliceStable(emitted, func(i, j int) bool { return emitted[i].Key < emitted[j].Key })
	var out strings.Builder
	for _, kv := range emitted {
		fmt.Fprintf(&out, "%s\t%s\n", kv.Key, kv.Value)
	}
	res := &Result{Stats: sched.snapshotStats(), Output: "/out/" + cfg.Name + "/part-00000"}
	if err := c.fs.Write(res.Output, []byte(out.String()), ""); err != nil {
		return nil, fmt.Errorf("mapreduce: writing %s: %w", res.Output, err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// stageCaches reads each cache file once per node, mirroring Hadoop's
// DistributedCache locality (one copy per node, shared by its slots).
func (c *Cluster) stageCaches(files []string) (map[string]map[string][]byte, error) {
	out := make(map[string]map[string][]byte)
	for _, node := range c.fs.LiveNodes() {
		m := make(map[string][]byte, len(files))
		for _, f := range files {
			data, err := c.fs.Read(f)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: staging cache %s on %s: %w", f, node, err)
			}
			m[path.Base(f)] = data
		}
		out[node] = m
	}
	return out, nil
}

// scheduler is the global task queue with locality preference and
// speculative re-execution.
type scheduler struct {
	mu      sync.Mutex
	cfg     JobConfig
	pending []*taskState
	byID    map[int]*taskState
	stats   Stats
	failure error
}

// tryCommit marks a task done exactly once; later rival attempts get
// false and their output is discarded.
func (s *scheduler) tryCommit(t *taskState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// next picks work for a node: first a pending task with a replica on the
// node, then any pending task, then (if enabled) a speculative duplicate
// of the longest-running task. It also returns the attempt number,
// captured under the lock. Returns nil when nothing remains.
func (s *scheduler) next(node string) (t *taskState, attempt int, speculative, anythingLeft bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return nil, 0, false, false
	}
	pick := -1
	for i, t := range s.pending {
		for _, n := range t.split.preferred {
			if n == node {
				pick = i
				break
			}
		}
		if pick >= 0 {
			break
		}
	}
	local := pick >= 0
	if pick < 0 && len(s.pending) > 0 {
		pick = 0
	}
	if pick >= 0 {
		t := s.pending[pick]
		s.pending = append(s.pending[:pick], s.pending[pick+1:]...)
		t.attempts++
		t.running++
		t.startedAt = time.Now()
		s.stats.Attempts++
		if local {
			s.stats.DataLocalTasks++
		} else {
			s.stats.NonLocalTasks++
		}
		return t, t.attempts, false, true
	}
	// No pending work: consider speculation.
	if s.cfg.Speculative {
		var candidate *taskState
		for _, t := range s.byID {
			if t.done || t.running == 0 || t.running > 1 {
				continue
			}
			if time.Since(t.startedAt) < speculativeAfter {
				continue
			}
			if candidate == nil || t.startedAt.Before(candidate.startedAt) {
				candidate = t
			}
		}
		if candidate != nil {
			candidate.attempts++
			candidate.running++
			s.stats.Attempts++
			s.stats.SpeculativeLaunched++
			return candidate, candidate.attempts, true, true
		}
	}
	// Anything still running means a tracker should poll again.
	for _, t := range s.byID {
		if !t.done && t.failed == nil {
			return nil, 0, false, true
		}
	}
	return nil, 0, false, false
}

// finish reports an attempt result.
func (s *scheduler) finish(t *taskState, speculative bool, committed bool, dur time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.running--
	if err != nil {
		s.stats.Retries++
		if t.attempts >= maxAttempts && !t.done {
			t.failed = err
			s.failure = fmt.Errorf("mapreduce: task %d failed after %d attempts: %w", t.id, t.attempts, err)
			return
		}
		if !t.done {
			s.pending = append(s.pending, t)
		}
		return
	}
	s.stats.TaskDurations = append(s.stats.TaskDurations, dur)
	if committed && speculative {
		s.stats.SpeculativeWon++
	}
}

func (s *scheduler) jobError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

func (s *scheduler) snapshotStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.TaskDurations = append([]time.Duration(nil), s.stats.TaskDurations...)
	return st
}

// trackerLoop runs one map slot on a node until the scheduler drains.
func (c *Cluster) trackerLoop(node string, cfg JobConfig, sched *scheduler,
	cache map[string][]byte, commit func(*taskState, []KV) bool) {
	for {
		t, attempt, speculative, anything := sched.next(node)
		if t == nil {
			if !anything {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		started := time.Now()
		ctx := &TaskContext{Node: node, Attempt: attempt, FS: c.fs, Cache: cache}
		var kvs []KV
		err := cfg.Map(ctx, t.split.key, t.split.value, func(k string, v []byte) {
			kvs = append(kvs, KV{Key: k, Value: append([]byte(nil), v...)})
		})
		committed := false
		if err == nil {
			committed = commit(t, kvs)
		}
		sched.finish(t, speculative, committed, time.Since(started), err)
	}
}
