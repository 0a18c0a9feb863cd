// Integration tests: every real biomedical application on every
// execution substrate — the three runners of internal/core and the
// elastic broker — fed the same apps.App value, input files and shared
// data. One table test pins the comparison surface (every runtime's
// output for every file is byte-identical to calling the kernel
// directly); the per-application tests below it verify the scientific
// correctness of those outputs, not just plumbing. These are the
// functional-layer counterparts of the paper's evaluation matrix.
package repro

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/cap3"
	"repro/internal/classiccloud"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/gtm"
	"repro/internal/queue"
	"repro/internal/workload"
)

// runtime is one of the four ways the repository runs an application
// over a file set.
type runtime struct {
	name string
	run  func(app apps.App, files, shared map[string][]byte) (map[string][]byte, error)
}

func runtimesUnderTest() []runtime {
	var out []runtime
	for _, r := range []core.Runner{
		core.ClassicCloudRunner{Instances: 2, WorkersPerInstance: 2},
		core.MapReduceRunner{Nodes: 3, SlotsPerNode: 2},
		core.DryadRunner{Nodes: 3, SlotsPerNode: 2},
	} {
		out = append(out, runtime{r.Backend(), func(app apps.App, files, shared map[string][]byte) (map[string][]byte, error) {
			res, err := r.Run(app, files, shared)
			if err != nil {
				return nil, err
			}
			return res.Outputs, core.Verify(files, res)
		}})
	}
	return append(out, runtime{"broker", runOnBroker})
}

// runOnBroker submits the job to a broker serving just this application,
// with a fixed fleet of two instances over in-process cloud services.
func runOnBroker(app apps.App, files, shared map[string][]byte) (map[string][]byte, error) {
	b := broker.New(broker.Config{
		Env: classiccloud.Env{
			Blob:  blob.NewStore(blob.Config{}),
			Queue: queue.NewService(queue.Config{}),
		},
		Registry:           broker.RegistryOf(app),
		WorkersPerInstance: 2,
		TickInterval:       20 * time.Millisecond,
		Autoscale:          broker.AutoscalePolicy{MinInstances: 2, MaxInstances: 2},
	})
	defer b.Close()
	job, err := b.Submit(broker.JobRequest{App: app.Name, Files: files, Shared: shared})
	if err != nil {
		return nil, err
	}
	if err := job.Wait(2 * time.Minute); err != nil {
		return nil, err
	}
	if st := job.Status(); st.Done != len(files) {
		return nil, fmt.Errorf("%d of %d tasks done, %d dead", st.Done, len(files), st.Dead)
	}
	return job.CollectOutputs()
}

// workloadUnderTest is one application with seeded inputs and the direct
// kernel call its outputs must equal.
type workloadUnderTest struct {
	app    apps.App
	files  map[string][]byte
	shared map[string][]byte
	direct func(input []byte) ([]byte, error)
}

// cap3Workload: reads of known genomes, one region per file.
func cap3Workload(t *testing.T) (w workloadUnderTest, genomes map[string][]byte) {
	const nFiles = 4
	w = workloadUnderTest{
		app:    apps.Cap3(cap3.Options{}),
		files:  make(map[string][]byte, nFiles),
		direct: func(in []byte) ([]byte, error) { return cap3.Run(in, cap3.Options{}) },
	}
	genomes = make(map[string][]byte, nFiles)
	for i := 0; i < nFiles; i++ {
		name := fmt.Sprintf("region%d.fsa", i)
		genome := workload.Genome(int64(300+i), 3000)
		cfg := workload.DefaultShotgun()
		cfg.ErrorRate = 0.002
		doc, err := fasta.MarshalRecords(workload.ShotgunReads(int64(400+i), genome, 120, cfg))
		if err != nil {
			t.Fatal(err)
		}
		w.files[name] = doc
		genomes[name] = genome
	}
	return w, genomes
}

// blastWorkload: motif-bearing queries against a database shipped as two
// FASTA documents, which every runtime must join in name order.
func blastWorkload(t *testing.T) workloadUnderTest {
	opt := blast.Options{Threads: 1, MaxEValue: 1e-3}
	dbRecs, motifs := workload.ProteinDatabase(21, 120, 150, 300, 4, 28)
	files, err := workload.BlastQueryFileSet(22, 3, 20, motifs, 70)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[string][]byte{}
	for i, part := range [][]*fasta.Record{dbRecs[:70], dbRecs[70:]} {
		if shared[fmt.Sprintf("nr.%d.fsa", i)], err = fasta.MarshalRecords(part); err != nil {
			t.Fatal(err)
		}
	}
	db := blast.NewDatabase(dbRecs)
	return workloadUnderTest{
		app: apps.Blast(opt), files: files, shared: shared,
		direct: func(in []byte) ([]byte, error) { return blast.Run(in, db, opt) },
	}
}

// gtmWorkload: shards of 300 points interpolated through a small model.
func gtmWorkload(t *testing.T) workloadUnderTest {
	model, err := gtm.Train(workload.ChemicalPoints(31, 250, 3), workload.PubChemDims, gtm.Config{
		LatentGridSize: 6, BasisGridSize: 3, MaxIter: 10, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 4; i++ {
		files[fmt.Sprintf("shard%d", i)], err = gtm.EncodeShard(workload.ChemicalPoints(int64(40+i), 300, 3), workload.PubChemDims)
		if err != nil {
			t.Fatal(err)
		}
	}
	return workloadUnderTest{
		app: apps.GTM(), files: files, shared: map[string][]byte{"model": blob},
		direct: func(in []byte) ([]byte, error) { return gtm.Run(model, in) },
	}
}

// TestEveryApplicationOnEveryRuntime pins the comparison surface: three
// applications × four runtimes, every output byte-identical to the
// kernel called directly with the same options on the same input.
func TestEveryApplicationOnEveryRuntime(t *testing.T) {
	cap3W, _ := cap3Workload(t)
	for _, w := range []workloadUnderTest{cap3W, blastWorkload(t), gtmWorkload(t)} {
		want := make(map[string][]byte, len(w.files))
		for name, in := range w.files {
			out, err := w.direct(in)
			if err != nil {
				t.Fatalf("%s: direct run of %s: %v", w.app.Name, name, err)
			}
			want[name] = out
		}
		for _, rt := range runtimesUnderTest() {
			t.Run(w.app.Name+"/"+rt.name, func(t *testing.T) {
				got, err := rt.run(w.app, w.files, w.shared)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Errorf("%d outputs for %d inputs", len(got), len(want))
				}
				for name := range want {
					if !bytes.Equal(got[name], want[name]) {
						t.Errorf("%s: output differs from the direct kernel call (%d bytes, want %d)",
							name, len(got[name]), len(want[name]))
					}
				}
			})
		}
	}
}

// TestCap3OnAllFrameworks assembles reads of known genomes on each
// substrate and verifies the contigs reconstruct the genomes.
func TestCap3OnAllFrameworks(t *testing.T) {
	w, genomes := cap3Workload(t)
	for _, rt := range runtimesUnderTest() {
		t.Run(rt.name, func(t *testing.T) {
			outputs, err := rt.run(w.app, w.files, w.shared)
			if err != nil {
				t.Fatal(err)
			}
			for name, out := range outputs {
				contigs, err := fasta.ParseBytes(out)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				longest := 0
				var longestSeq []byte
				for _, c := range contigs {
					if c.Len() > longest {
						longest = c.Len()
						longestSeq = c.Seq
					}
				}
				if longest < len(genomes[name])/2 {
					t.Errorf("%s: longest contig %d < half the %d-base genome",
						name, longest, len(genomes[name]))
					continue
				}
				// The contig (either strand) must appear in the genome at
				// high identity; check containment of a large interior
				// window to stay robust to edge effects.
				window := longestSeq[longest/4 : longest/4+longest/4]
				genome := genomes[name]
				if !bytes.Contains(genome, window) &&
					!bytes.Contains(genome, bio.ReverseComplement(window)) {
					t.Errorf("%s: contig window not found in source genome", name)
				}
			}
		})
	}
}

// TestBlastOnAllFrameworks searches motif-bearing queries on each
// substrate and requires consistent hit counts everywhere.
func TestBlastOnAllFrameworks(t *testing.T) {
	w := blastWorkload(t)
	var wantHits int
	for i, rt := range runtimesUnderTest() {
		t.Run(rt.name, func(t *testing.T) {
			outputs, err := rt.run(w.app, w.files, w.shared)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for _, out := range outputs {
				hits += strings.Count(string(out), "\n")
			}
			if hits == 0 {
				t.Fatal("no hits; motif queries must match the database")
			}
			if i == 0 {
				wantHits = hits
				return
			}
			if hits != wantHits {
				t.Errorf("hit count %d differs from first backend's %d", hits, wantHits)
			}
		})
	}
}

// TestGTMOnAllFrameworks interpolates identical shards on each substrate
// and requires bit-identical embeddings.
func TestGTMOnAllFrameworks(t *testing.T) {
	w := gtmWorkload(t)
	var reference map[string][]byte
	for _, rt := range runtimesUnderTest() {
		t.Run(rt.name, func(t *testing.T) {
			outputs, err := rt.run(w.app, w.files, w.shared)
			if err != nil {
				t.Fatal(err)
			}
			for name, out := range outputs {
				coords, err := gtm.DecodeEmbedding(out)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(coords) != 300*gtm.LatentDims {
					t.Fatalf("%s: %d coords", name, len(coords))
				}
				for _, c := range coords {
					if c < -1.001 || c > 1.001 {
						t.Fatalf("%s: embedding %v escapes the latent square", name, c)
					}
				}
			}
			if reference == nil {
				reference = outputs
				return
			}
			for name, want := range reference {
				if !bytes.Equal(outputs[name], want) {
					t.Errorf("%s: embeddings differ across backends", name)
				}
			}
		})
	}
}
