package cap3

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// TestFewerThanTwoKeptReads pins Run's bytes and Assemble's Stats on the
// inputs around the early return for a file with no pair of kept reads,
// to the values the full pipeline gave before that return existed (the
// golden corpus has one-read files only). Two kept reads still take the
// full path: its seeding and verification counters are non-zero.
func TestFewerThanTwoKeptReads(t *testing.T) {
	g := string(workload.Genome(7, 200))
	for _, c := range []struct {
		name, doc, out string
		stats          Stats
	}{
		{name: "empty document"},
		{
			name:  "one record shorter than MinReadLen",
			doc:   ">short\nACGTACGTACGTACGTACGT\n",
			stats: Stats{InputReads: 1, DroppedReads: 1},
		},
		{
			name:  "three records, one kept",
			doc:   ">poly\n" + strings.Repeat("A", 64) + "\n>short\nACGTACGTAC\n>ok\n" + g[:120] + "\n",
			out:   "; 1 singletons\n",
			stats: Stats{InputReads: 3, TrimmedBases: 64, DroppedReads: 2, Singletons: 1},
		},
		{
			name: "two overlapping records",
			doc:  ">left\n" + g[:90] + "\n>right\n" + g[40:130] + "\n",
			out: ">Contig1 reads=2 length=130\n" +
				"GGCTAAAGAAACGGTAAGCGAGTTCCTCCTACATTCACAAAACTCATCCCGGAGCGGCATCGTCCAACGA\n" +
				"TGCCCTCACGTACGTCAAGTGTTCTTTAACCGCGCAGTGTGGACCGGCCCAGTCGAACAT\n",
			stats: Stats{InputReads: 2, SeedCandidates: 1, OverlapsTested: 1, OverlapsKept: 1, Contigs: 1, ConsensusBases: 130},
		},
	} {
		out, err := Run([]byte(c.doc), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(out) != c.out {
			t.Errorf("%s: Run = %q, want %q", c.name, out, c.out)
		}
		recs, err := fasta.ParseBytes([]byte(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st := Assemble(recs, Options{}).Stats; st != c.stats {
			t.Errorf("%s: Stats\n got %+v\nwant %+v", c.name, st, c.stats)
		}
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
		kc.EachKmer(r.seq, func(pos int, key, _ uint64) {
			index[key] = append(index[key], loc{read: int32(i), pos: int32(pos)})
		})
	}

	var overlaps []overlap
	votes := make(map[seedKey]int)
	for a, r := range reads {
		clear(votes)
		collect := func(seq []byte, sign int8) {
			kc.EachKmer(seq, func(pos int, key, _ uint64) {
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
	got, gotStats := new(scratch).findOverlaps(reads, opt)
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
// reads with no k-mer at all, and the strand corners of canonical keys —
// k-mers equal to their own reverse complement, and reads of one window.
func overlapEdgeCases() map[string][][]byte {
	g := workload.Genome(77, 400)
	unit := []byte("ACGGTCATTGC")
	palindrome := append(append([]byte{}, g[:60]...), bio.ReverseComplement(g[:60])...)
	withN := append([]byte{}, g[100:300]...)
	withN[50], withN[51], withN[120] = 'N', 'n', 'X'
	// pal14 is a 7-mer followed by its reverse complement: a palindromic
	// 14-mer, found on both strands of every read that holds it.
	pal14 := append(append([]byte{}, g[310:317]...), bio.ReverseComplement(g[310:317])...)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	palRead := join(g[:40], pal14, g[40:80])
	cases := map[string][][]byte{
		"palindromic 14-mer in three reads": {
			palRead, bio.ReverseComplement(palRead[10:]), join(g[200:230], pal14, g[230:300]),
		},
		// Every even-length window of (AT)ⁿ or (GC)ⁿ is palindromic.
		"only palindromic windows": {
			bytes.Repeat([]byte("AT"), 60), bytes.Repeat([]byte("TA"), 45), g[:100],
			join(bytes.Repeat([]byte("GC"), 20), g[100:160]), bytes.Repeat([]byte("AT"), 30),
		},
		"exactly k bases": {g[300:314], g[250:400], bio.ReverseComplement(g[300:314]), g[300:314]},
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
		checkAgainstOracle(t, fmt.Sprintf("seed %d, %d reads of %d bp", c.Seed, c.Reads, c.Genome), corpusReads(t, docs[i], opt), opt)
	}
}

// corpusReads parses a golden corpus file into the reads Assemble hands
// findOverlaps.
func corpusReads(t *testing.T, doc []byte, opt Options) []*read {
	t.Helper()
	recs, err := fasta.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	var seqs [][]byte
	for _, rec := range recs {
		if seq, _ := trimPoorRegions(bytes.ToUpper(rec.Seq), opt); len(seq) >= opt.MinReadLen {
			seqs = append(seqs, seq)
		}
	}
	return rawReads(seqs...)
}

// indexReads indexes reads in a new index.
func indexReads(reads []*read, k int) *kmerIndex {
	x := new(kmerIndex)
	x.build(reads, k)
	return x
}

// TestKmerIndexEntryPoints checks the index by brute force: for every
// occurrence, the chain from skip must be exactly the occurrences of its
// canonical key on its own strand in later reads, newest first, and the
// chain from cross the same on the opposite strand — on its own strand
// again for a palindromic k-mer. That is what lets the vote walks run
// without a probe or a read check.
func TestKmerIndexEntryPoints(t *testing.T) {
	opt := Options{}.withDefaults()
	check := func(name string, reads []*read, k int) {
		t.Helper()
		idx := indexReads(reads, k)
		kc := bio.NewKmerCoder(k)
		type canon struct {
			key    uint64
			strand int
			pal    bool
		}
		of := make([]canon, len(idx.locs))
		byKey := map[uint64][]int32{} // arena indices, ascending
		for l := 1; l < len(idx.locs); l++ {
			o := idx.locs[l]
			win := reads[o.read].seq[o.pos : int(o.pos)+k]
			fwd, ok1 := kc.Encode(win)
			rc, ok2 := kc.Encode(bio.ReverseComplement(win))
			if !ok1 || !ok2 {
				t.Fatalf("%s: occurrence %d (read %d, pos %d) is not a k-mer: %q", name, l, o.read, o.pos, win)
			}
			c := canon{key: min(fwd, rc), pal: fwd == rc}
			if rc < fwd {
				c.strand = 1
			}
			of[l] = c
			byKey[c.key] = append(byKey[c.key], int32(l))
		}
		for l := 1; l < len(idx.locs); l++ {
			o, c := idx.locs[l], of[l]
			for _, entry := range []struct {
				name   string
				head   int32
				strand int
			}{{"skip", o.skip, c.strand}, {"cross", o.cross, 1 - c.strand}} {
				if c.pal {
					entry.strand = c.strand
				}
				var want []int32 // newest first, as chains run
				for _, m := range byKey[c.key] {
					if of[m].strand == entry.strand && idx.locs[m].read > o.read {
						want = append(want, m)
					}
				}
				slices.Reverse(want)
				var got []int32
				for m := entry.head; m != 0; m = idx.locs[m].next {
					got = append(got, m)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: occurrence %d (read %d, pos %d): chain from %s %v, want %v", name, l, o.read, o.pos, entry.name, got, want)
				}
			}
		}
	}
	for name, seqs := range overlapEdgeCases() {
		check(name, rawReads(seqs...), opt.SeedK)
		check(name+" (k=4)", rawReads(seqs...), 4)
	}
	cases, docs := goldenCorpus(t)
	for i, c := range cases {
		check(fmt.Sprintf("seed %d, %d reads of %d bp", c.Seed, c.Reads, c.Genome), corpusReads(t, docs[i], opt), opt.SeedK)
	}
}

// TestOverlapRankMatchesStableSort holds the layout order to the stable
// sort by score it replaced: best score first and equal scores in
// findOverlaps' order, element for element. The random sets are heavy
// with equal scores reached from different (length, identity) pairs; the
// golden corpus gives the overlap sets real files have.
func TestOverlapRankMatchesStableSort(t *testing.T) {
	check := func(name string, overlaps []overlap) {
		t.Helper()
		want := slices.Clone(overlaps)
		slices.SortStableFunc(want, func(x, y overlap) int { return cmp.Compare(y.score(), x.score()) })
		var got []overlap
		for _, r := range rankOverlaps(nil, overlaps) {
			got = append(got, overlaps[r.i])
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: ranked order of %d overlaps differs from the stable sort's at %d", name, len(want), firstDiff(got, want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	ties := 0
	for _, n := range []int{0, 1, 2, 12, 13, 50, 552, 3000} {
		for round := range 4 {
			overlaps := make([]overlap, n)
			byScore := map[float64]int{} // a length reaching each score
			for i := range overlaps {
				// Identity as verifyOverlap computes it: a score lands on
				// its match count or an ulp from it, so overlaps with one
				// match count and different lengths tie or nearly tie.
				length := 40 + rng.Intn(12)
				ov := overlap{a: i, b: n + i, length: length, ident: float64(length-rng.Intn(6)) / float64(length)}
				if l, ok := byScore[ov.score()]; ok && l != length {
					ties++
				}
				byScore[ov.score()] = length
				overlaps[i] = ov
			}
			check(fmt.Sprintf("%d random overlaps, round %d", n, round), overlaps)
		}
	}
	if ties == 0 {
		t.Fatal("no two random overlaps tie from different lengths")
	}
	opt := Options{}.withDefaults()
	cases, docs := goldenCorpus(t)
	for i, c := range cases {
		overlaps, _ := new(scratch).findOverlaps(corpusReads(t, docs[i], opt), opt)
		check(fmt.Sprintf("seed %d, %d reads of %d bp", c.Seed, c.Reads, c.Genome), overlaps)
	}
}

// TestReadViewsMatchBio: the read views Assemble builds in its arena are
// what trimming bytes.ToUpper's copy and bio.ReverseComplement give, for
// mixed case, ambiguity codes, non-ASCII text and invalid UTF-8 (which
// upper-cases longer than it was), with one scratch reused throughout.
func TestReadViewsMatchBio(t *testing.T) {
	opt := Options{MinReadLen: 12}.withDefaults()
	alphabet := [][]byte{[]byte("A"), []byte("C"), []byte("G"), []byte("T"), []byte("a"), []byte("c"),
		[]byte("g"), []byte("t"), []byte("N"), []byte("n"), []byte("AAAAAAAA"), []byte("é"), {0xff}}
	rng := rand.New(rand.NewSource(1))
	s := new(scratch)
	for round := range 200 {
		recs := make([]*fasta.Record, rng.Intn(12))
		for i := range recs {
			var seq []byte
			for range rng.Intn(60) {
				// Mostly bases: one record in four draws from every symbol.
				pick := alphabet[rng.Intn(4)]
				if i%4 == 0 {
					pick = alphabet[rng.Intn(len(alphabet))]
				}
				seq = append(seq, pick...)
			}
			recs[i] = &fasta.Record{ID: fmt.Sprintf("r%d", i), Seq: seq}
		}
		var want []read
		var wantStats Stats
		for _, rec := range recs {
			seq, clipped := trimPoorRegions(bytes.ToUpper(rec.Seq), opt)
			wantStats.TrimmedBases += clipped
			if len(seq) < opt.MinReadLen {
				wantStats.DroppedReads++
				continue
			}
			want = append(want, read{id: rec.ID, seq: seq, rc: bio.ReverseComplement(seq)})
		}
		var gotStats Stats
		got := s.readViews(recs, opt, &gotStats)
		if gotStats != wantStats || len(got) != len(want) {
			t.Fatalf("round %d: %d reads, stats %+v; want %d, %+v", round, len(got), gotStats, len(want), wantStats)
		}
		for i, r := range got {
			if r.id != want[i].id || !bytes.Equal(r.seq, want[i].seq) || !bytes.Equal(r.rc, want[i].rc) {
				t.Fatalf("round %d, read %d: %s %q / %q, want %s %q / %q", round, i, r.id, r.seq, r.rc, want[i].id, want[i].seq, want[i].rc)
			}
		}
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
// kernel spent 141 allocations on a one-read file, and before the k-mer
// index was pooled and FASTA parsed in place a Run still took 30
// allocations and 16 KB, and 11 allocations and 448 bytes while a
// one-read file still built a k-mer index and a layout. What is left is
// parsing the input (four allocations) and what Run returns: the file's
// scratch is reused, and a file with no pair of reads skips overlap
// detection. It reads 7 allocations and 400 bytes.
func TestRunAllocsOnOneRead(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the scratch and fmt's printers at random under -race")
	}
	doc, err := workload.Cap3File(1, 1, 120)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	run := func() {
		if _, err := Run(doc, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, run)
	if allocs > 8 {
		t.Errorf("Run on a one-read file: %.0f allocations, want ≤ 8", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 512 {
		t.Errorf("Run on a one-read file allocates %d bytes, want ≤ 512", perRun)
	}
}

// TestRunAllocsOnFatFile guards what a cap3_fat-shaped file costs beside
// its alignment, in steady state: with the file's scratch reused, what is
// left is parsing the input (four allocations for the whole file) and
// what Run returns. Before the scratch a Run took 806 allocations and
// 577 KB, and 383 allocations and 91–109 KB while parsing took three
// allocations a record. It reads 19 allocations and 73–143 KB.
func TestRunAllocsOnFatFile(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the scratch and fmt's printers at random under -race")
	}
	doc, err := workload.Cap3File(1, 120, 6000)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	run := func() {
		if _, err := Run(doc, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: the scratch grows to the file
	allocs := testing.AllocsPerRun(runs, run)
	if allocs > 24 {
		t.Errorf("Run on a fat file: %.0f allocations, want ≤ 24", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 160<<10 {
		t.Errorf("Run on a fat file allocates %d bytes, want ≤ 160 KB", perRun)
	}
}

// TestIdleScratchIsReclaimed: when no file follows a large one, the GC
// reclaims the large file's scratch, so a worker that idles or turns to
// other apps keeps none of it. The scratch holds over 30 bytes an input
// base; the heap may keep no more than the input's own size of it.
func TestIdleScratchIsReclaimed(t *testing.T) {
	doc, err := workload.Cap3File(1, 1000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := live()
	if _, err := Run(doc, Options{}); err != nil {
		t.Fatal(err)
	}
	for gcs := 1; ; gcs++ {
		heap := live()
		if heap <= base+uint64(len(doc)) {
			break
		}
		if gcs == 20 {
			t.Fatalf("after %d GCs with no file running, the heap holds %d bytes more than before a %d-byte file", gcs, heap-base, len(doc))
		}
	}
}

// TestRunIndependentOfPriorRuns: Run takes its scratch from a pool,
// so a file may get the table, arenas and counts a bigger or a
// repeat-rich file left behind. Whatever ran before, and however many files run at
// once, every golden file must still give its recorded digest, and every
// repeat-rich file the digest of its first run.
func TestRunIndependentOfPriorRuns(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenCase
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	_, docs := goldenCorpus(t)
	if len(docs) != len(golden) {
		t.Fatalf("corpus has %d cases, testdata/golden.json %d", len(docs), len(golden))
	}
	want := make([]string, len(docs))
	for i := range golden {
		want[i] = golden[i].SHA256
	}
	byShape := map[[2]int][]int{}
	for i, c := range golden {
		shape := [2]int{c.Reads, c.Genome}
		byShape[shape] = append(byShape[shape], i)
	}
	fat, tiny, mid := byShape[goldenShapes[0]], byShape[goldenShapes[1]], byShape[goldenShapes[2]]
	var tandem []int
	for seed := int64(0); seed < 4; seed++ {
		doc, err := fasta.MarshalRecords(tandemReads(seed, 24))
		if err != nil {
			t.Fatal(err)
		}
		tandem = append(tandem, len(docs))
		docs = append(docs, doc)
		want = append(want, "") // recorded by the first run below
	}
	// Fat files leave big tables behind, tiny ones use a prefix, the
	// repeat-rich ones grow their table past the presized length.
	order := slices.Concat(fat, tiny, fat, tandem, mid, tiny, tandem, mid)
	digest := func(i int) string {
		out, err := Run(docs[i], Options{})
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(out))
	}
	for _, i := range order {
		got := digest(i)
		if want[i] == "" {
			want[i] = got
		}
		if got != want[i] {
			t.Fatalf("file %d after the files before it in %v: digest %s, want %s", i, order, got, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at its own place in the order.
			for n := range order {
				i := order[(n+g*len(order)/4)%len(order)]
				if got := digest(i); got != want[i] {
					t.Errorf("goroutine %d, file %d: digest %s, want %s", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
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
