package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/hdfs"
)

// stateless wraps a per-file function that needs no shared data.
func stateless(name string, process apps.Process) apps.App {
	return apps.App{Name: name, Open: func(map[string][]byte) (apps.Process, error) { return process, nil }}
}

var toUpper = stateless("upper", func(name string, input []byte) ([]byte, error) {
	return bytes.ToUpper(input), nil
})

func inputFiles(n int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("f%03d.txt", i)] = []byte(fmt.Sprintf("input %d", i))
	}
	return files
}

// allRunners returns one configured runner per backend.
func allRunners() []Runner {
	return []Runner{
		ClassicCloudRunner{Instances: 2, WorkersPerInstance: 2},
		MapReduceRunner{Nodes: 3, SlotsPerNode: 2},
		DryadRunner{Nodes: 3, SlotsPerNode: 2},
	}
}

func TestAllBackendsProduceIdenticalOutputs(t *testing.T) {
	files := inputFiles(12)
	want := map[string][]byte{}
	for name, in := range files {
		want[name] = bytes.ToUpper(in)
	}
	for _, r := range allRunners() {
		t.Run(r.Backend(), func(t *testing.T) {
			res, err := r.Run(toUpper, files, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(files, res); err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if !bytes.Equal(res.Outputs[name], w) {
					t.Errorf("%s: output %q, want %q", name, res.Outputs[name], w)
				}
			}
			if res.Elapsed <= 0 {
				t.Error("elapsed not recorded")
			}
			if res.Backend != r.Backend() {
				t.Errorf("backend label = %q", res.Backend)
			}
		})
	}
}

func TestEmptyInputRejectedEverywhere(t *testing.T) {
	for _, r := range allRunners() {
		if _, err := r.Run(toUpper, nil, nil); !errors.Is(err, ErrNoInput) {
			t.Errorf("%s: %v, want ErrNoInput", r.Backend(), err)
		}
	}
}

// appendRef requires a reference table before processing: Open fails
// unless exactly the staged table arrives, and the per-file function
// appends it to every input.
var appendRef = apps.App{Name: "shared-app", Open: func(shared map[string][]byte) (apps.Process, error) {
	ref, ok := shared["refdb"]
	if !ok || len(shared) != 2 {
		return nil, fmt.Errorf("staged files %v, want refdb and second", sortedNames(shared))
	}
	return func(name string, input []byte) ([]byte, error) {
		return append(append([]byte{}, input...), ref...), nil
	}, nil
}}

func TestSharedDataStagedOnEveryBackend(t *testing.T) {
	files := inputFiles(6)
	shared := map[string][]byte{"refdb": []byte("REF"), "second": []byte("2")}
	for _, r := range allRunners() {
		t.Run(r.Backend(), func(t *testing.T) {
			res, err := r.Run(appendRef, files, shared)
			if err != nil {
				t.Fatal(err)
			}
			for name, in := range files {
				want := append(append([]byte{}, in...), []byte("REF")...)
				if !bytes.Equal(res.Outputs[name], want) {
					t.Errorf("%s: %q, want %q", name, res.Outputs[name], want)
				}
			}
			// Without the data the application does not open, and no
			// backend runs a file.
			if _, err := r.Run(appendRef, files, nil); err == nil {
				t.Error("ran with no shared data staged")
			}
		})
	}
}

// Every backend opens an application once per job, however many
// workers, attempts and nodes it has.
func TestApplicationOpenedOncePerJob(t *testing.T) {
	for _, r := range allRunners() {
		var opens atomic.Int32
		app := apps.App{Name: "counted", Open: func(map[string][]byte) (apps.Process, error) {
			opens.Add(1)
			return func(_ string, in []byte) ([]byte, error) { return in, nil }, nil
		}}
		if _, err := r.Run(app, inputFiles(9), nil); err != nil {
			t.Fatalf("%s: %v", r.Backend(), err)
		}
		if n := opens.Load(); n != 1 {
			t.Errorf("%s opened the application %d times", r.Backend(), n)
		}
	}
}

// Two runs of one job stage their inputs in the same order, so the
// seeded HDFS places every replica identically and the scheduler's queue
// starts out the same. (data_local itself also depends on which tracker
// goroutine asks first once a cluster has more nodes than replicas.)
func TestMapReduceStagingIsRepeatable(t *testing.T) {
	files := inputFiles(24)
	nodes := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	var firstPaths []string
	var firstPlaced [][][]string
	for run := 0; run < 4; run++ {
		fs := hdfs.NewFS(nodes)
		paths, err := stageHDFS(fs, "/in/", files)
		if err != nil {
			t.Fatal(err)
		}
		var placed [][][]string
		for _, p := range paths {
			locs, err := fs.Locations(p)
			if err != nil {
				t.Fatal(err)
			}
			placed = append(placed, locs)
		}
		if run == 0 {
			firstPaths, firstPlaced = paths, placed
			if !sort.StringsAreSorted(paths) {
				t.Errorf("inputs staged out of name order: %v", paths)
			}
		} else if !reflect.DeepEqual(paths, firstPaths) || !reflect.DeepEqual(placed, firstPlaced) {
			t.Fatalf("run %d staged or placed differently from run 0:\n%v\n%v", run, placed, firstPlaced)
		}
	}
}

func TestApplicationErrorSurfacesFromMapReduceAndDryad(t *testing.T) {
	bad := stateless("bad", func(name string, input []byte) ([]byte, error) {
		return nil, errors.New("application exploded")
	})
	// MapReduce and Dryad retry then fail the job. (Classic Cloud retries
	// forever via the visibility timeout and would hit its job timeout
	// instead; covered in the classiccloud package tests.)
	for _, r := range []Runner{
		MapReduceRunner{Nodes: 2, SlotsPerNode: 1},
		DryadRunner{Nodes: 2, SlotsPerNode: 1},
	} {
		if _, err := r.Run(bad, inputFiles(3), nil); err == nil {
			t.Errorf("%s: expected failure", r.Backend())
		}
	}
}

func TestVerifyDetectsMissingOutputs(t *testing.T) {
	files := inputFiles(2)
	if err := Verify(files, nil); err == nil {
		t.Error("nil result accepted")
	}
	res := &RunResult{Outputs: map[string][]byte{"f000.txt": nil}}
	if err := Verify(files, res); err == nil {
		t.Error("short output set accepted")
	}
	res.Outputs["wrong-name"] = nil
	if err := Verify(files, res); err == nil {
		t.Error("mismatched names accepted")
	}
}

func TestMapReduceSpeculativeConfig(t *testing.T) {
	r := MapReduceRunner{Nodes: 2, SlotsPerNode: 2, Speculative: true}
	res, err := r.Run(toUpper, inputFiles(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(inputFiles(8), res); err != nil {
		t.Fatal(err)
	}
}

func TestRunnersDefaultConfiguration(t *testing.T) {
	// Zero-valued runners must still work via defaults.
	for _, r := range []Runner{ClassicCloudRunner{}, MapReduceRunner{}, DryadRunner{}} {
		res, err := r.Run(toUpper, inputFiles(3), nil)
		if err != nil {
			t.Errorf("%s with defaults: %v", r.Backend(), err)
			continue
		}
		if len(res.Outputs) != 3 {
			t.Errorf("%s: %d outputs", r.Backend(), len(res.Outputs))
		}
	}
}

// A Classic Cloud run ends once its outputs are in, as the other
// runners' do: stopping the workers, which waits out their parked long
// polls, is reported as the shutdown_ms detail and is not in Elapsed.
func TestClassicCloudElapsedExcludesShutdown(t *testing.T) {
	begin := time.Now()
	res, err := ClassicCloudRunner{Instances: 2, WorkersPerInstance: 2}.Run(toUpper, inputFiles(8), nil)
	wall := time.Since(begin)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := strconv.ParseFloat(res.Detail["shutdown_ms"], 64)
	if err != nil || ms <= 0 {
		t.Fatalf("shutdown_ms detail %q (%v), want the time the workers took to stop", res.Detail["shutdown_ms"], err)
	}
	// The detail is printed to the microsecond.
	shutdown := time.Duration(ms * float64(time.Millisecond))
	if res.Elapsed+shutdown > wall+time.Microsecond {
		t.Errorf("Elapsed %v and shutdown %v add up to more than the whole Run, %v: Elapsed includes the shutdown",
			res.Elapsed, shutdown, wall)
	}
}

func TestDetailCountersPresent(t *testing.T) {
	res, err := MapReduceRunner{Nodes: 2, SlotsPerNode: 1}.Run(toUpper, inputFiles(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nodes", "attempts", "locality_fraction"} {
		if _, ok := res.Detail[k]; !ok {
			t.Errorf("detail missing %q: %v", k, res.Detail)
		}
	}
}
