package cap3

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bio"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func TestTransformCompose(t *testing.T) {
	a := transform{sign: -1, shift: 10}
	b := transform{sign: 1, shift: 3}
	c := compose(a, b) // a ∘ b: comp = -1*(l+3)+10 = -l+7
	if c.sign != -1 || c.shift != 7 {
		t.Errorf("compose = %+v, want {-1 7}", c)
	}
}

// Property: invert is a true inverse under composition.
func TestTransformInvert(t *testing.T) {
	f := func(sgn bool, shift int16) bool {
		s := 1
		if sgn {
			s = -1
		}
		tr := transform{sign: s, shift: int(shift)}
		id := compose(tr, invert(tr))
		id2 := compose(invert(tr), tr)
		return id == transform{sign: 1, shift: 0} && id2 == transform{sign: 1, shift: 0}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutUnionConsistency(t *testing.T) {
	l := newLayout(3)
	// read1 at +10 in read0's frame.
	if !l.union(0, 1, transform{sign: 1, shift: 10}) {
		t.Fatal("first union failed")
	}
	// read2 reversed at shift 5 in read1's frame.
	if !l.union(1, 2, transform{sign: -1, shift: 5}) {
		t.Fatal("second union failed")
	}
	// Now read2 in read0's frame must be {-1, 15}.
	r0, t0 := l.find(0)
	r2, t2 := l.find(2)
	if r0 != r2 {
		t.Fatal("not same component")
	}
	got := compose(invert(t0), t2) // read2-local → read0-local
	if got.sign != -1 || got.shift != 15 {
		t.Errorf("read2 in read0 frame = %+v, want {-1 15}", got)
	}
	// Conflicting edge must be rejected.
	if l.union(0, 2, transform{sign: -1, shift: 16}) {
		t.Error("conflicting union should be rejected")
	}
	// Consistent duplicate edge must be accepted.
	if !l.union(0, 2, transform{sign: -1, shift: 15}) {
		t.Error("consistent duplicate union should succeed")
	}
}

func TestTrimPoorRegions(t *testing.T) {
	opt := Options{}.withDefaults()
	clean := []byte("ACGTTGCAAGCTTGCACGTACGATCGTAGCTAGCATGCAT")
	got, clipped := trimPoorRegions(clean, opt)
	if clipped != 0 || !bytes.Equal(got, clean) {
		t.Errorf("clean read was trimmed by %d", clipped)
	}
	junk := bytes.Repeat([]byte("A"), 16)
	dirty := append(append(append([]byte{}, junk...), clean...), junk...)
	got, clipped = trimPoorRegions(dirty, opt)
	if clipped < 16 {
		t.Errorf("clipped = %d, want ≥ 16", clipped)
	}
	if !bytes.Contains(clean, got) && !bytes.Contains(got, clean[4:len(clean)-4]) {
		t.Errorf("trimmed read lost core content: %q", got)
	}
}

// makeReads shreds a genome into error-free reads at the given tiling step.
func makeReads(genome []byte, readLen, step int) []*fasta.Record {
	var recs []*fasta.Record
	for i, pos := 0, 0; pos+readLen <= len(genome); i, pos = i+1, pos+step {
		recs = append(recs, &fasta.Record{
			ID:  fmt.Sprintf("r%03d", i),
			Seq: append([]byte{}, genome[pos:pos+readLen]...),
		})
	}
	return recs
}

func TestAssemblePerfectTiling(t *testing.T) {
	genome := workload.Genome(101, 2000)
	reads := makeReads(genome, 200, 100)
	res := Assemble(reads, Options{})
	if len(res.Contigs) != 1 {
		t.Fatalf("got %d contigs, want 1 (stats %+v)", len(res.Contigs), res.Stats)
	}
	if !bytes.Equal(res.Contigs[0].Consensus, genome) &&
		!bytes.Equal(res.Contigs[0].Consensus, bio.ReverseComplement(genome)) {
		t.Errorf("consensus (len %d) does not reconstruct genome (len %d)",
			len(res.Contigs[0].Consensus), len(genome))
	}
	if len(res.Singletons) != 0 {
		t.Errorf("unexpected singletons: %v", res.Singletons)
	}
}

func TestAssembleWithReverseComplementReads(t *testing.T) {
	// 1475 = 17*75 + 200 so the read tiling covers the genome exactly.
	genome := workload.Genome(7, 1475)
	reads := makeReads(genome, 200, 75)
	// Reverse every other read.
	for i, r := range reads {
		if i%2 == 1 {
			r.Seq = bio.ReverseComplement(r.Seq)
		}
	}
	res := Assemble(reads, Options{})
	if len(res.Contigs) != 1 {
		t.Fatalf("got %d contigs, want 1", len(res.Contigs))
	}
	c := res.Contigs[0].Consensus
	if !bytes.Equal(c, genome) && !bytes.Equal(c, bio.ReverseComplement(genome)) {
		t.Error("consensus does not reconstruct genome with mixed orientations")
	}
	// Placements must record the reversed reads.
	nRev := 0
	for _, p := range res.Contigs[0].Reads {
		if p.Reversed {
			nRev++
		}
	}
	if nRev == 0 {
		t.Error("no read recorded as reversed")
	}
}

func TestAssembleTwoIslands(t *testing.T) {
	gA := workload.Genome(11, 1200)
	gB := workload.Genome(12, 1200)
	reads := append(makeReads(gA, 200, 100), makeReads(gB, 200, 100)...)
	res := Assemble(reads, Options{})
	if len(res.Contigs) != 2 {
		t.Fatalf("got %d contigs, want 2", len(res.Contigs))
	}
	var lens []int
	for _, c := range res.Contigs {
		lens = append(lens, len(c.Consensus))
	}
	for _, l := range lens {
		if l != 1200 {
			t.Errorf("contig lengths %v, want both 1200", lens)
		}
	}
}

func TestAssembleNoisyShotgun(t *testing.T) {
	genome := workload.Genome(21, 4000)
	cfg := workload.DefaultShotgun()
	reads := workload.ShotgunReads(22, genome, 160, cfg) // ~12x coverage
	res := Assemble(reads, Options{})
	if len(res.Contigs) == 0 {
		t.Fatalf("no contigs assembled (stats %+v)", res.Stats)
	}
	// The dominant contig should recover most of the genome with high identity.
	longest := res.Contigs[0]
	for _, c := range res.Contigs[1:] {
		if len(c.Consensus) > len(longest.Consensus) {
			longest = c
		}
	}
	if len(longest.Consensus) < len(genome)*8/10 {
		t.Errorf("longest contig %d bases, want ≥ 80%% of %d", len(longest.Consensus), len(genome))
	}
	ident := bestIdentity(longest.Consensus, genome)
	if ident < 0.97 {
		t.Errorf("consensus identity %.3f, want ≥ 0.97", ident)
	}
}

// bestIdentity slides the shorter sequence over the longer (both strands)
// and returns the best matching fraction at the best ungapped offset.
func bestIdentity(contig, genome []byte) float64 {
	try := func(c []byte) float64 {
		best := 0.0
		for off := -len(c) + 100; off < len(genome)-100; off += 1 {
			matches, total := 0, 0
			for i := range c {
				g := off + i
				if g < 0 || g >= len(genome) {
					continue
				}
				total++
				if c[i] == genome[g] {
					matches++
				}
			}
			if total > len(c)/2 {
				if f := float64(matches) / float64(total); f > best {
					best = f
				}
			}
		}
		return best
	}
	f1 := try(contig)
	f2 := try(bio.ReverseComplement(contig))
	if f2 > f1 {
		return f2
	}
	return f1
}

func TestAssembleEmptyAndTiny(t *testing.T) {
	res := Assemble(nil, Options{})
	if len(res.Contigs) != 0 || len(res.Singletons) != 0 {
		t.Error("empty input should produce nothing")
	}
	res = Assemble([]*fasta.Record{{ID: "only", Seq: bytes.Repeat([]byte("ACGT"), 50)}}, Options{})
	if len(res.Singletons) != 1 {
		t.Errorf("single read should be a singleton, got %+v", res.Stats)
	}
}

func TestAssembleDropsShortReads(t *testing.T) {
	recs := []*fasta.Record{
		{ID: "short", Seq: []byte("ACGTACG")},
		{ID: "ok", Seq: workload.Genome(31, 300)},
	}
	res := Assemble(recs, Options{})
	if res.Stats.DroppedReads != 1 {
		t.Errorf("DroppedReads = %d, want 1", res.Stats.DroppedReads)
	}
}

func TestN50(t *testing.T) {
	r := &Result{Contigs: []*Contig{
		{Consensus: make([]byte, 100)},
		{Consensus: make([]byte, 300)},
		{Consensus: make([]byte, 600)},
	}}
	// total 1000; contigs ≥ 600 cover 600 ≥ 500 → N50 = 600.
	if got := r.N50(); got != 600 {
		t.Errorf("N50 = %d, want 600", got)
	}
	empty := &Result{}
	if empty.N50() != 0 {
		t.Error("empty N50 should be 0")
	}
}

func TestRunProducesFasta(t *testing.T) {
	doc, err := workload.Cap3File(55, 80, 3000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), ">Contig") {
		t.Errorf("output should start with a contig record, got %q", out[:min(40, len(out))])
	}
	recs, err := fasta.ParseBytes(out)
	if err != nil {
		t.Fatalf("output is not parseable FASTA: %v", err)
	}
	if len(recs) == 0 {
		t.Error("no contigs in output")
	}
}

// TestRunIsDeterministic pins the idempotent-re-execution argument: a
// task executed twice (a redelivered message) must write the same
// output, so Run has to be a function of its input alone. The file has
// the shape of bench/workloads' cap3_fat tasks (120 reads of a 6 kb
// genome), where tied seed votes and equal overlap scores occur.
func TestRunIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		doc, err := workload.Cap3File(seed, 120, 6000)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Run(doc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 20; i++ {
			out, err := Run(doc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, first) {
				t.Fatalf("seed %d: run %d differs from run 0 on the same input", seed, i)
			}
		}
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	if _, err := Run([]byte("this is not fasta\n"), Options{}); err == nil {
		t.Error("garbage input should error")
	}
}

// Property: assembling error-free full-coverage reads of a random genome
// reconstructs a sequence of exactly the genome length.
func TestQuickAssembleReconstructionLength(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gl := 800 + rng.Intn(800)
		genome := workload.Genome(seed, gl)
		reads := makeReads(genome, 150, 60)
		res := Assemble(reads, Options{})
		if len(res.Contigs) != 1 {
			return false
		}
		return len(res.Contigs[0].Consensus) >= gl-150 && len(res.Contigs[0].Consensus) <= gl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAssemble200Reads(b *testing.B) {
	doc, err := workload.Cap3File(99, 200, 8000)
	if err != nil {
		b.Fatal(err)
	}
	recs, _ := fasta.ParseBytes(doc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assemble(recs, Options{})
	}
}
