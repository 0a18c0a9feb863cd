package cap3

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
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

// seedKey names one diagonal of the oracle's vote map: a k-mer shared by
// read a in orientation sign and forward read b, with b starting at
// offset in oriented-a coordinates.
type seedKey struct {
	b      int32
	sign   int8 // orientation of a relative to its forward sequence
	offset int32
}

// findOverlapsMap is findOverlaps as it stood through PR 19, on Go maps
// with an explicit ordering pass: the reference the flat kernel must
// reproduce exactly, overlap for overlap and counter for counter.
func findOverlapsMap(reads []*read, opt Options) ([]overlap, overlapStats) {
	var stats overlapStats
	kc := bio.NewKmerCoder(opt.SeedK)

	// Index forward k-mers of every read.
	type loc struct {
		read int32
		pos  int32
	}
	index := make(map[uint64][]loc)
	for i, r := range reads {
		kc.EachKmer(r.seq, func(pos int, key uint64) {
			index[key] = append(index[key], loc{read: int32(i), pos: int32(pos)})
		})
	}

	var overlaps []overlap
	votes := make(map[seedKey]int)
	for a, r := range reads {
		clear(votes)
		collect := func(seq []byte, sign int8) {
			kc.EachKmer(seq, func(pos int, key uint64) {
				for _, l := range index[key] {
					if int(l.read) <= a { // each unordered pair once; skip self
						continue
					}
					// b starts at offset (pos - l.pos) in oriented-a coords.
					votes[seedKey{b: l.read, sign: sign, offset: int32(pos) - l.pos}]++
				}
			})
		}
		collect(r.seq, +1)
		collect(r.rc, -1)
		stats.SeedCandidates += len(votes)

		// Verify the best-voted diagonal for each (b, sign) pair. Map
		// iteration order must not reach the output (a redelivered task
		// has to rewrite the same bytes): equal votes go to the lower
		// offset, and pairs are verified in (b, sign) order so overlaps
		// are appended in one fixed order.
		best := make(map[[2]int32]seedKey)
		for k, v := range votes {
			bk := [2]int32{k.b, int32(k.sign)}
			cur, ok := best[bk]
			if cv := votes[cur]; !ok || cv < v || (cv == v && k.offset < cur.offset) {
				best[bk] = k
			}
		}
		picked := make([]seedKey, 0, len(best))
		for _, k := range best {
			picked = append(picked, k)
		}
		slices.SortFunc(picked, func(x, y seedKey) int {
			return cmp.Or(cmp.Compare(x.b, y.b), cmp.Compare(x.sign, y.sign))
		})
		for _, k := range picked {
			stats.OverlapsTested++
			ov, ok := verifyOverlap(reads, a, int(k.b), int(k.sign), int(k.offset), opt)
			if !ok {
				stats.FalseOverlaps++
				continue
			}
			overlaps = append(overlaps, ov)
		}
	}
	return overlaps, stats
}

// rawReads wraps sequences as findOverlaps sees them, with none of
// Assemble's upper-casing, trimming or length filter.
func rawReads(seqs ...[]byte) []*read {
	reads := make([]*read, len(seqs))
	for i, s := range seqs {
		reads[i] = &read{id: fmt.Sprintf("r%d", i), seq: s, rc: bio.ReverseComplement(s)}
	}
	return reads
}

// checkAgainstOracle fails unless findOverlaps and the map version agree
// on every overlap, their order, and every counter.
func checkAgainstOracle(t *testing.T, name string, reads []*read, opt Options) {
	t.Helper()
	got, gotStats := findOverlaps(reads, opt)
	want, wantStats := findOverlapsMap(reads, opt)
	if gotStats != wantStats {
		t.Errorf("%s: stats %+v, oracle %+v", name, gotStats, wantStats)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: %d overlaps, oracle %d; first difference at %d", name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []overlap) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// overlapEdgeCases are hand-made read sets that reach what the seeded
// corpus does not: the spill path, ties across hundreds of diagonals,
// reads with no k-mer at all.
func overlapEdgeCases() map[string][][]byte {
	g := workload.Genome(77, 400)
	unit := []byte("ACGGTCATTGC")
	palindrome := append(append([]byte{}, g[:60]...), bio.ReverseComplement(g[:60])...)
	withN := append([]byte{}, g[100:300]...)
	withN[50], withN[51], withN[120] = 'N', 'n', 'X'
	cases := map[string][][]byte{
		"none":            nil,
		"one":             {g[:200]},
		"shorter than k":  {g[:5], g[:13], g[:200], g[100:300], []byte{}},
		"duplicates":      {g[:200], g[:200], g[:200], bio.ReverseComplement(g[:200])},
		"self revcomp":    {palindrome, palindrome, g[:120]},
		"N and lowercase": {withN, g[150:350], bytes.ToLower(g[120:320]), bio.ReverseComplement(withN)},
		"poly-A": {
			bytes.Repeat([]byte("A"), 300), bytes.Repeat([]byte("A"), 90),
			bytes.Repeat([]byte("T"), 150), bytes.Repeat([]byte("a"), 40),
		},
		"tandem, short inside long": {
			bytes.Repeat(unit, 40), bytes.Repeat(unit, 9), bytes.Repeat(unit, 25)[3:],
			bio.ReverseComplement(bytes.Repeat(unit, 12)), g[:200],
		},
	}
	var tandem [][]byte
	for _, rec := range tandemReads(5, 16) {
		tandem = append(tandem, rec.Seq)
	}
	cases["tandem, noisy"] = tandem
	return cases
}

func TestFindOverlapsMatchesOracle(t *testing.T) {
	opt := Options{}.withDefaults()
	for name, seqs := range overlapEdgeCases() {
		checkAgainstOracle(t, name, rawReads(seqs...), opt)
		small := opt
		small.SeedK, small.MinOverlap = 4, 8
		checkAgainstOracle(t, name+" (k=4)", rawReads(seqs...), small)
	}
	cases, docs := goldenCorpus(t)
	for i, c := range cases {
		recs, err := fasta.ParseBytes(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		var seqs [][]byte
		for _, rec := range recs {
			if seq, _ := trimPoorRegions(bio.Upper(rec.Seq), opt); len(seq) >= opt.MinReadLen {
				seqs = append(seqs, seq)
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("seed %d, %d reads of %d bp", c.Seed, c.Reads, c.Genome), rawReads(seqs...), opt)
	}
}

// FuzzFindOverlaps: arbitrary bytes become a handful of reads over ACGTN
// (two bits of the first byte pick k), and the flat kernel must agree
// with the map oracle exactly and never panic.
func FuzzFindOverlaps(f *testing.F) {
	for _, seqs := range overlapEdgeCases() {
		f.Add(append([]byte{0}, bytes.Join(seqs, []byte{'\n'})...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		opt := Options{}.withDefaults()
		opt.SeedK = []int{14, 3, 6, 31}[data[0]&3]
		opt.MinOverlap = 1 + int(data[0]>>2)
		var seqs [][]byte
		for _, line := range bytes.Split(data[1:], []byte{'\n'}) {
			seq := make([]byte, len(line))
			for i, c := range line {
				if _, ok := bio.BaseCode(c); ok {
					seq[i] = c
				} else {
					seq[i] = "ACGTN"[c%5]
				}
			}
			seqs = append(seqs, seq)
		}
		checkAgainstOracle(t, "fuzz", rawReads(seqs...), opt)
	})
}

// TestRunAllocsOnOneRead guards the kernel's fixed cost, which
// bench/workloads' tiny_durable pays 16 384 times a repetition: the map
// kernel spent 141 allocations on a one-read file.
func TestRunAllocsOnOneRead(t *testing.T) {
	doc, err := workload.Cap3File(1, 1, 120)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Run(doc, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Run on a one-read file: %.0f allocations, want ≤ 40", allocs)
	}
}

// goldenShapes are the (reads, genome) shapes of the golden corpus:
// bench/workloads' cap3_fat and tiny_durable task shapes and one between.
var goldenShapes = [][2]int{{120, 6000}, {1, 120}, {60, 1500}}

const goldenSeeds = 10

// goldenCase is one line of testdata/golden.json.
type goldenCase struct {
	Seed          int64
	Reads, Genome int
	SHA256        string // of Run's output
	Stats         Stats
}

// goldenCorpus returns the corpus's cases, digests and counters unset,
// and their input files.
func goldenCorpus(tb testing.TB) (cases []goldenCase, docs [][]byte) {
	tb.Helper()
	for _, shape := range goldenShapes {
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			doc, err := workload.Cap3File(seed, shape[0], shape[1])
			if err != nil {
				tb.Fatal(err)
			}
			cases = append(cases, goldenCase{Seed: seed, Reads: shape[0], Genome: shape[1]})
			docs = append(docs, doc)
		}
	}
	return cases, docs
}

// TestGoldenRun pins Run's bytes and Assemble's Stats on a seeded corpus
// to what PR 19's map-based findOverlaps produced (testdata/golden.json
// was recorded at that commit). Idempotent re-execution rests on Run
// being a function of its input, and bench/e2e compares every output
// with a direct kernel call: a failure here means the kernel's output
// changed, which is never a matter of recording new digests.
func TestGoldenRun(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases, docs := goldenCorpus(t)
	if len(cases) != len(want) {
		t.Fatalf("corpus has %d cases, testdata/golden.json %d", len(cases), len(want))
	}
	for i, c := range cases {
		out, err := Run(docs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := fasta.ParseBytes(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		c.SHA256 = fmt.Sprintf("%x", sha256.Sum256(out))
		c.Stats = Assemble(recs, Options{}).Stats
		if c != want[i] {
			t.Errorf("seed %d, %d reads of %d bp:\n got %+v\nwant %+v", c.Seed, c.Reads, c.Genome, c, want[i])
		}
	}
}

// kernelFiles is the input set of one kernel benchmark: enough files that
// no single layout decides the figure.
func kernelFiles(b *testing.B, reads, genome int) [][]byte {
	b.Helper()
	docs := make([][]byte, 8)
	for i := range docs {
		doc, err := workload.Cap3File(int64(1000+i), reads, genome)
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	return docs
}

var kernelSink []byte

func benchmarkKernel(b *testing.B, docs [][]byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Run(docs[i%len(docs)], Options{})
		if err != nil {
			b.Fatal(err)
		}
		kernelSink = out
	}
}

// The BenchmarkKernel* family times Run on one file per op, in the task
// shapes bench/workloads gives the frameworks: cap3_fat's, tiny_durable's,
// and a repeat-rich file no workload has (the worst case for vote
// counting: every pair of reads shares k-mers on hundreds of diagonals).
func BenchmarkKernelCap3Fat(b *testing.B)  { benchmarkKernel(b, kernelFiles(b, 120, 6000)) }
func BenchmarkKernelCap3Tiny(b *testing.B) { benchmarkKernel(b, kernelFiles(b, 1, 120)) }
func BenchmarkKernelCap3Repeats(b *testing.B) {
	docs := make([][]byte, 4)
	for i := range docs {
		doc, err := fasta.MarshalRecords(tandemReads(int64(i), 24))
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	benchmarkKernel(b, docs)
}

// tandemReads draws n reads of 120–260 bases from one long tandem repeat
// of an 11-base unit with 1 % substitutions, half of them reverse
// complemented: any two share k-mers on every diagonal that is a
// multiple of 11, and a short read inside a long one ties the votes of
// all of them.
func tandemReads(seed int64, n int) []*fasta.Record {
	rng := rand.New(rand.NewSource(seed))
	genome := bytes.Repeat([]byte("ACGGTCATTGC"), 60)
	recs := make([]*fasta.Record, n)
	for i := range recs {
		l := 120 + rng.Intn(141)
		start := rng.Intn(len(genome) - l + 1)
		seq := append([]byte{}, genome[start:start+l]...)
		for j := range seq {
			if rng.Intn(100) == 0 {
				seq[j] = bio.DNAAlphabet[rng.Intn(4)]
			}
		}
		if rng.Intn(2) == 0 {
			seq = bio.ReverseComplement(seq)
		}
		recs[i] = &fasta.Record{ID: fmt.Sprintf("t%03d", i), Seq: seq}
	}
	return recs
}
