package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hdfs"
)

func newCluster(t *testing.T, nNodes, slots int) *Cluster {
	t.Helper()
	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%02d", i)
	}
	fs := hdfs.NewFS(names)
	return NewCluster(fs, slots)
}

func writeInputs(t *testing.T, fs *hdfs.FS, n int, prefix string) []string {
	t.Helper()
	paths := make([]string, n)
	for i := range paths {
		p := fmt.Sprintf("%s/file%03d", prefix, i)
		if err := fs.Write(p, []byte(fmt.Sprintf("data-%d", i)), ""); err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	return paths
}

func TestMapOnlyJob(t *testing.T) {
	c := newCluster(t, 4, 2)
	inputs := writeInputs(t, c.fs, 12, "/in")
	res, err := c.Run(JobConfig{
		Name:  "upper",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			data, err := ctx.FS.Read(string(value))
			if err != nil {
				return err
			}
			emit(key, bytes.ToUpper(data))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapTasks != 12 {
		t.Errorf("MapTasks = %d", res.Stats.MapTasks)
	}
	out, err := c.fs.Read(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "file000\tDATA-0") {
		t.Errorf("output missing expected line:\n%s", out)
	}
	lines := strings.Count(string(out), "\n")
	if lines != 12 {
		t.Errorf("%d output lines, want 12", lines)
	}
}

func TestFileNameInputFormat(t *testing.T) {
	c := newCluster(t, 3, 2)
	inputs := writeInputs(t, c.fs, 5, "/data")
	var sawPath atomic.Bool
	res, err := c.Run(JobConfig{
		Name:  "paths",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			// key = base name, value = HDFS path; the map copies the file
			// from HDFS itself, like the paper's executable driver.
			if !strings.HasPrefix(key, "file") {
				return fmt.Errorf("key %q is not a file name", key)
			}
			data, err := ctx.FS.Read(string(value))
			if err != nil {
				return err
			}
			sawPath.Store(true)
			emit(key, data)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawPath.Load() {
		t.Error("map never ran")
	}
	if res.Stats.MapTasks != 5 {
		t.Errorf("MapTasks = %d", res.Stats.MapTasks)
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	// Three replicas over 12 nodes: a node taking the head task finds its
	// data about one time in five (measured), with locality-aware pickup
	// about nine in ten attempts are data-local.
	c := newCluster(t, 12, 2)
	inputs := writeInputs(t, c.fs, 40, "/in")
	res, err := c.Run(JobConfig{
		Name:  "locality",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			time.Sleep(time.Millisecond)
			emit(key, value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Stats.LocalityFraction(); f < 0.5 {
		t.Errorf("locality fraction = %.2f, want ≥ 0.5", f)
	}
}

func TestFailedTaskIsRetried(t *testing.T) {
	c := newCluster(t, 2, 2)
	inputs := writeInputs(t, c.fs, 6, "/in")
	var failures atomic.Int64
	res, err := c.Run(JobConfig{
		Name:  "flaky",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			if strings.HasSuffix(key, "file003") && failures.Add(1) <= 2 {
				return errors.New("transient map failure")
			}
			emit(key, value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retries < 2 {
		t.Errorf("Retries = %d, want ≥ 2", res.Stats.Retries)
	}
	if res.Stats.Attempts < res.Stats.MapTasks+2 {
		t.Errorf("Attempts = %d", res.Stats.Attempts)
	}
}

func TestPermanentFailureFailsJob(t *testing.T) {
	c := newCluster(t, 2, 1)
	inputs := writeInputs(t, c.fs, 3, "/in")
	_, err := c.Run(JobConfig{
		Name:  "doomed",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			if strings.HasSuffix(key, "file001") {
				return errors.New("permanent failure")
			}
			emit(key, value)
			return nil
		},
	})
	if err == nil {
		t.Fatal("job should fail")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", maxAttempts)) {
		t.Errorf("err = %v", err)
	}
}

func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	c := newCluster(t, 4, 2)
	inputs := writeInputs(t, c.fs, 8, "/in")
	var stragglerRuns atomic.Int64
	res, err := c.Run(JobConfig{
		Name:        "straggler",
		Input:       inputs,
		Speculative: true,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			if strings.HasSuffix(key, "file000") {
				// First attempt is pathologically slow (six times
				// speculativeAfter); the speculative duplicate finishes
				// instantly.
				if stragglerRuns.Add(1) == 1 {
					time.Sleep(300 * time.Millisecond)
				}
			}
			emit(key, value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpeculativeLaunched == 0 {
		t.Error("no speculative attempt launched")
	}
	// All 8 tasks must be in the output exactly once despite duplicates.
	out, _ := c.fs.Read(res.Output)
	if n := strings.Count(string(out), "\n"); n != 8 {
		t.Errorf("%d output lines, want 8 (duplicate commits?)", n)
	}
}

func TestDistributedCache(t *testing.T) {
	c := newCluster(t, 3, 1)
	fs := c.fs
	fs.Write("/cache/refdb", []byte("REFERENCE"), "")
	inputs := writeInputs(t, fs, 4, "/in")
	res, err := c.Run(JobConfig{
		Name:       "cached",
		Input:      inputs,
		CacheFiles: []string{"/cache/refdb"},
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			ref, ok := ctx.Cache["refdb"]
			if !ok {
				return errors.New("cache file missing")
			}
			data, err := ctx.FS.Read(string(value))
			if err != nil {
				return err
			}
			emit(key, append(data, ref...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := fs.Read(res.Output)
	if !strings.Contains(string(out), "data-0REFERENCE") {
		t.Errorf("cache content not visible to maps:\n%s", out)
	}
}

func TestMissingCacheFileFailsJob(t *testing.T) {
	c := newCluster(t, 2, 1)
	inputs := writeInputs(t, c.fs, 2, "/in")
	_, err := c.Run(JobConfig{
		Name:       "nocache",
		Input:      inputs,
		CacheFiles: []string{"/cache/missing"},
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			return nil
		},
	})
	if err == nil {
		t.Fatal("missing cache file should fail the job")
	}
}

func TestJobValidation(t *testing.T) {
	c := newCluster(t, 2, 1)
	if _, err := c.Run(JobConfig{Name: "nomap", Input: []string{"/x"}}); err == nil {
		t.Error("job without map should fail")
	}
	if _, err := c.Run(JobConfig{
		Name: "noinput",
		Map:  func(*TaskContext, string, []byte, func(string, []byte)) error { return nil },
	}); err == nil {
		t.Error("job without inputs should fail")
	}
	if _, err := c.Run(JobConfig{
		Name:  "badinput",
		Input: []string{"/does/not/exist"},
		Map:   func(*TaskContext, string, []byte, func(string, []byte)) error { return nil },
	}); err == nil {
		t.Error("job with missing input should fail")
	}
}

func TestLoadBalanceAcrossNodes(t *testing.T) {
	// Inhomogeneous task durations: dynamic scheduling should still
	// spread attempts across nodes rather than serializing.
	c := newCluster(t, 4, 1)
	inputs := writeInputs(t, c.fs, 16, "/in")
	var perNode [4]atomic.Int64
	_, err := c.Run(JobConfig{
		Name:  "balance",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			var idx int
			fmt.Sscanf(ctx.Node, "node%02d", &idx)
			perNode[idx].Add(1)
			time.Sleep(2 * time.Millisecond)
			emit(key, value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for i := range perNode {
		if perNode[i].Load() > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d/4 nodes executed tasks", busy)
	}
}

func TestStatsDurationsRecorded(t *testing.T) {
	c := newCluster(t, 2, 2)
	inputs := writeInputs(t, c.fs, 5, "/in")
	res, err := c.Run(JobConfig{
		Name:  "durations",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			emit(key, value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.TaskDurations) < 5 {
		t.Errorf("recorded %d durations, want ≥ 5", len(res.Stats.TaskDurations))
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestJobSurvivesDatanodeFailure(t *testing.T) {
	// Files are written with three replicas, then one datanode dies before
	// the job starts: every block still has a live replica, so the job
	// must complete by reading the survivors.
	c := newCluster(t, 4, 2)
	inputs := writeInputs(t, c.fs, 12, "/in")
	if err := c.fs.KillNode("node01"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(JobConfig{
		Name:  "survivor",
		Input: inputs,
		Map: func(ctx *TaskContext, key string, value []byte, emit func(string, []byte)) error {
			if ctx.Node == "node01" {
				return errors.New("dead node executed a task")
			}
			emit(key, value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapTasks != 12 {
		t.Errorf("MapTasks = %d", res.Stats.MapTasks)
	}
	out, err := c.fs.Read(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "\n"); n != 12 {
		t.Errorf("%d output lines, want 12", n)
	}
}
