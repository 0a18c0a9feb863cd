// Package workloads defines the five named workloads of the end-to-end
// benchmark: what each submits, why it exists, how its inputs are made
// from a seed, and the reference outputs the program's results are
// checked against. The program under test sees only the generated
// files.
package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/bench/harness"
	"repro/internal/blast"
	"repro/internal/cap3"
	"repro/internal/fasta"
	"repro/internal/gtm"
	"repro/internal/workload"
)

// Spec is one workload: a deployment shape, its overrides from
// production defaults, and the jobs it submits.
type Spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Declared says the workload is listed in BENCHMARK.json, so the
	// acceptance driver runs and gates it. The driver's time limit covers
	// 4 + 22 × workloads runs, so every declared workload shortens the
	// others' runs, and on a noisy machine run length is what steadies a
	// figure: three are declared, tiny_ephemeral and restart_recover are
	// left to this command's own -check.
	Declared bool
	Shape    harness.Shape
	// WorkersPerInstance is the broker-wide workers-per-instance knob;
	// every job runs one instance, so jobs × this is the closed loop's
	// worker count.
	WorkersPerInstance int
	// Restart makes the run a kill-and-recover drill: the job is
	// submitted behind a gate, the deployment is killed, and the timed
	// section is recovery plus drain.
	Restart bool
	// Visibility overrides the 1m task lease (restart only: the dead
	// workers' leases must return within the run).
	Visibility time.Duration
	// sizes returns the input counts at full and smoke size. Counts may
	// be tuned to the time budget; the per-task shape may not.
	sizes func(smoke bool) map[string]int
	// jobs builds the submissions for a seed at the given sizes.
	jobs func(seed int64, n map[string]int) ([]Job, error)
}

// Job is one submission.
type Job struct {
	App    string
	Tenant string
	Files  map[string][]byte
	Shared map[string][]byte
}

// Inputs is a workload instantiated for one seed.
type Inputs struct {
	Jobs   []Job
	Sizes  map[string]int
	Tasks  int
	Digest string // sha256 over every job's files and shared data
}

// Per-task shapes. These are the workload definitions; only the counts
// in each sizes func may be tuned.
const (
	fatReads, fatGenome   = 120, 6000 // ~11 ms of CAP3 per file
	tinyReads, tinyGenome = 1, 120    // <0.1 ms of CAP3 per file
	blastQueries          = 2         // per query file
	blastQueryLen         = 150       // against 100 sequences of 200–300 aa: ~25 ms per file
	blastDBSeqs           = 100
	gtmPoints             = 400 // × 166 dims × 8 B ≈ 531 KB per shard
	gtmTrainPoints        = 300
)

func cap3Jobs(reads, genome int) func(int64, map[string]int) ([]Job, error) {
	return func(seed int64, n map[string]int) ([]Job, error) {
		files, err := workload.Cap3FileSet(seed, n["cap3_files"], reads, genome, 0)
		if err != nil {
			return nil, err
		}
		return []Job{{App: "cap3", Tenant: "assembly", Files: files}}, nil
	}
}

func tinySizes(smoke bool) map[string]int {
	if smoke {
		return map[string]int{"cap3_files": 96}
	}
	return map[string]int{"cap3_files": 16384}
}

func mixedJobs(seed int64, n map[string]int) ([]Job, error) {
	db, motifs := workload.ProteinDatabase(seed, blastDBSeqs, 200, 300, 6, 30)
	dbDoc, err := fasta.MarshalRecords(db)
	if err != nil {
		return nil, err
	}
	queries, err := workload.BlastQueryFileSet(seed+1, n["blast_files"], blastQueries, motifs, blastQueryLen)
	if err != nil {
		return nil, err
	}
	model, err := gtm.Train(workload.ChemicalPoints(seed+2, gtmTrainPoints, 3), workload.PubChemDims,
		gtm.Config{MaxIter: 10, Seed: seed})
	if err != nil {
		return nil, err
	}
	modelDoc, err := model.Marshal()
	if err != nil {
		return nil, err
	}
	shards := make(map[string][]byte, n["gtm_shards"])
	for i := 0; i < n["gtm_shards"]; i++ {
		enc, err := gtm.EncodeShard(workload.ChemicalPoints(seed+100+int64(i), gtmPoints, 3), workload.PubChemDims)
		if err != nil {
			return nil, err
		}
		shards[fmt.Sprintf("gtm_shard_%04d.bin", i)] = enc
	}
	return []Job{
		{App: "blast", Tenant: "search", Files: queries, Shared: map[string][]byte{"nr.fsa": dbDoc}},
		{App: "gtm", Tenant: "chem", Files: shards, Shared: map[string][]byte{"model.gtm": modelDoc}},
	}, nil
}

// All lists the workloads in the order they are run and reported.
func All() []Spec {
	return []Spec{
		{
			Name: "cap3_fat", Declared: true,
			Why:   "compute-bound: ~11 ms CAP3 tasks dwarf the stack, so stack changes predict no change and kernel changes show",
			Shape: harness.ShapeFull, WorkersPerInstance: 2,
			sizes: func(smoke bool) map[string]int {
				if smoke {
					return map[string]int{"cap3_files": 6}
				}
				return map[string]int{"cap3_files": 256}
			},
			jobs: cap3Jobs(fatReads, fatGenome),
		},
		{
			Name: "tiny_durable", Declared: true,
			Why:   "stack-bound: sub-0.1 ms tasks, so submit, queue, wire, router, journal appends and blob do nearly all the work",
			Shape: harness.ShapeFull, WorkersPerInstance: 2,
			sizes: tinySizes, jobs: cap3Jobs(tinyReads, tinyGenome),
		},
		{
			Name:  "tiny_ephemeral",
			Why:   "the tiny_durable files with journaling off: bypasses journal and journal store, isolating the durability tax",
			Shape: harness.ShapeWire, WorkersPerInstance: 2,
			sizes: tinySizes, jobs: cap3Jobs(tinyReads, tinyGenome),
		},
		{
			Name: "mixed_tenants", Declared: true,
			Why:   "two tenants (BLAST + GTM) at once: both shards carry traffic, large blob objects beside small journal appends",
			Shape: harness.ShapeFull, WorkersPerInstance: 1,
			sizes: func(smoke bool) map[string]int {
				if smoke {
					return map[string]int{"blast_files": 3, "gtm_shards": 4}
				}
				return map[string]int{"blast_files": 48, "gtm_shards": 64}
			},
			jobs: mixedJobs,
		},
		{
			Name:  "restart_recover",
			Why:   "kill mid-job, then recover shards and broker from the journals: reads and folds what the others append",
			Shape: harness.ShapeFull, WorkersPerInstance: 2, Restart: true,
			Visibility: time.Second,
			sizes:      tinySizes, jobs: cap3Jobs(tinyReads, tinyGenome),
		},
	}
}

// Declared lists the workloads BENCHMARK.json names, in order.
func Declared() []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Declared {
			out = append(out, s)
		}
	}
	return out
}

// Lookup finds a workload by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generate makes the workload's inputs from the seed: the same seed
// gives byte-identical inputs, a different seed different ones.
func (s Spec) Generate(seed int64, smoke bool) (*Inputs, error) {
	sizes := s.sizes(smoke)
	jobs, err := s.jobs(seed, sizes)
	if err != nil {
		return nil, fmt.Errorf("workloads: generating %s: %w", s.Name, err)
	}
	in := &Inputs{Jobs: jobs, Sizes: sizes}
	h := sha256.New()
	for _, j := range jobs {
		in.Tasks += len(j.Files)
		fmt.Fprintf(h, "job %s %s\n", j.App, j.Tenant)
		for _, part := range []map[string][]byte{j.Files, j.Shared} {
			for _, name := range sortedNames(part) {
				fmt.Fprintf(h, "%s %d\n", name, len(part[name]))
				h.Write(part[name])
			}
		}
	}
	in.Digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// kernel returns the direct call into an app's kernel, built from the
// job's shared data exactly as the broker's registry builds its
// executor — but without the broker, the queue or the blob store.
func kernel(j Job) (func(input []byte) ([]byte, error), error) {
	switch j.App {
	case "cap3":
		return func(in []byte) ([]byte, error) { return cap3.Run(in, cap3.Options{}) }, nil
	case "blast":
		var seqs []*fasta.Record
		for _, name := range sortedNames(j.Shared) {
			recs, err := fasta.ParseBytes(j.Shared[name])
			if err != nil {
				return nil, err
			}
			seqs = append(seqs, recs...)
		}
		db := blast.NewDatabase(seqs)
		return func(in []byte) ([]byte, error) { return blast.Run(in, db, blast.Options{}) }, nil
	case "gtm":
		names := sortedNames(j.Shared)
		if len(names) != 1 {
			return nil, fmt.Errorf("workloads: gtm job needs one shared model, has %d", len(names))
		}
		model, err := gtm.UnmarshalModel(j.Shared[names[0]])
		if err != nil {
			return nil, err
		}
		return func(in []byte) ([]byte, error) { return gtm.Run(model, in) }, nil
	}
	return nil, fmt.Errorf("workloads: no kernel for app %q", j.App)
}

// Reference computes every job's expected outputs (task id → bytes) by
// calling the kernels directly, spread over the available processors.
func Reference(in *Inputs) ([]map[string][]byte, error) {
	out := make([]map[string][]byte, len(in.Jobs))
	for ji, j := range in.Jobs {
		run, err := kernel(j)
		if err != nil {
			return nil, err
		}
		names := sortedNames(j.Files)
		results := make([][]byte, len(names))
		errs := make([]error, len(names))
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(names); i += workers {
					results[i], errs[i] = run(j.Files[names[i]])
				}
			}(w)
		}
		wg.Wait()
		out[ji] = make(map[string][]byte, len(names))
		for i, name := range names {
			if errs[i] != nil {
				return nil, fmt.Errorf("workloads: reference %s/%s: %w", j.App, name, errs[i])
			}
			out[ji][name] = results[i]
		}
	}
	return out, nil
}

// Matches reports whether a program output is the reference output.
// Every app compares byte for byte, with one documented exception:
// cap3.Run is not a pure function of its input — it iterates Go maps
// while choosing among equally voted overlaps, so about one 120-read
// file in seven comes out with its contigs in another order, reverse
// complemented, or with a tie-broken consensus base, run to run, with
// no queue or blob store involved (a defect of internal/cap3 this
// benchmark found and may not fix; see bench/README.md). For cap3 a
// byte mismatch therefore falls back to the run-stable form of the
// output: its length and the multiset of contig headers (reads, length)
// plus the singleton line. exact tells the two cases apart.
func Matches(app string, got, want []byte) (ok, exact bool) {
	if string(got) == string(want) {
		return true, true
	}
	if app != "cap3" || len(got) != len(want) {
		return false, false
	}
	return cap3Signature(got) == cap3Signature(want), false
}

func cap3Signature(out []byte) string {
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(l, ">"):
			_, rest, _ := strings.Cut(l, " ") // drop the order-dependent contig name
			lines = append(lines, rest)
		case strings.HasPrefix(l, ";"):
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
