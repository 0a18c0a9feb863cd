package workload

import (
	"bytes"
	"testing"

	"repro/internal/bio"
	"repro/internal/fasta"
)

// spells reports whether every byte of seq is a letter of alphabet.
func spells(seq []byte, alphabet string) bool {
	return len(bytes.Trim(seq, alphabet)) == 0
}

func TestGenomeDeterministic(t *testing.T) {
	a := Genome(42, 1000)
	b := Genome(42, 1000)
	if !bytes.Equal(a, b) {
		t.Error("same seed should give same genome")
	}
	c := Genome(43, 1000)
	if bytes.Equal(a, c) {
		t.Error("different seeds should differ")
	}
	if !spells(a, bio.DNAAlphabet) {
		t.Error("genome must be unambiguous DNA")
	}
}

func TestShotgunReadsCoverGenome(t *testing.T) {
	genome := Genome(1, 5000)
	cfg := DefaultShotgun()
	cfg.ErrorRate = 0
	cfg.PoorEdgeProb = 0
	cfg.ReverseProb = 0
	reads := ShotgunReads(2, genome, 200, cfg)
	if len(reads) != 200 {
		t.Fatalf("got %d reads", len(reads))
	}
	// With no noise every read must be an exact substring.
	for _, r := range reads[:20] {
		if !bytes.Contains(genome, r.Seq) {
			t.Errorf("read %s is not a genome substring", r.ID)
		}
	}
	// Coverage: 200 reads × ~300bp over 5kb ≈ 12×; expect >99% coverage.
	covered := make([]bool, len(genome))
	for _, r := range reads {
		idx := bytes.Index(genome, r.Seq)
		if idx >= 0 {
			for i := idx; i < idx+len(r.Seq); i++ {
				covered[i] = true
			}
		}
	}
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	if frac := float64(n) / float64(len(genome)); frac < 0.95 {
		t.Errorf("coverage = %.3f, want ≥ 0.95", frac)
	}
}

func TestShotgunReadsWithNoiseAndEdges(t *testing.T) {
	genome := Genome(3, 3000)
	cfg := DefaultShotgun()
	cfg.PoorEdgeProb = 1.0
	reads := ShotgunReads(4, genome, 50, cfg)
	for _, r := range reads {
		if r.Len() < 50 {
			t.Errorf("read %s too short: %d", r.ID, r.Len())
		}
	}
	// Junk edges must make reads longer than the raw read length floor.
	longer := 0
	for _, r := range reads {
		if r.Len() > 300 {
			longer++
		}
	}
	if longer == 0 {
		t.Error("expected some reads with junk edges to exceed 300bp")
	}
}

func TestCap3FileParsable(t *testing.T) {
	doc, err := Cap3File(7, 200, 20000)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fasta.CountRecords(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("file has %d records, want 200", n)
	}
}

func TestCap3FileSetHomogeneous(t *testing.T) {
	files, err := Cap3FileSet(11, 8, 100, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Fatalf("got %d files", len(files))
	}
	for name, doc := range files {
		n, err := fasta.CountRecords(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 100 {
			t.Errorf("%s has %d records, want 100", name, n)
		}
	}
}

func TestCap3FileSetInhomogeneous(t *testing.T) {
	files, err := Cap3FileSet(11, 16, 100, 10000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]bool{}
	for _, doc := range files {
		n, _ := fasta.CountRecords(doc)
		counts[n] = true
	}
	if len(counts) < 4 {
		t.Errorf("inhomogeneous set should vary read counts, got %d distinct", len(counts))
	}
}

func TestProteinDatabase(t *testing.T) {
	db, motifs := ProteinDatabase(5, 30, 200, 400, 4, 30)
	if len(db) != 30 || len(motifs) != 4 {
		t.Fatalf("db=%d motifs=%d", len(db), len(motifs))
	}
	for _, rec := range db {
		if rec.Len() < 200 || rec.Len() > 400 {
			t.Errorf("seq %s length %d outside [200,400]", rec.ID, rec.Len())
		}
		if !spells(rec.Seq, bio.ProteinAlphabet) {
			t.Errorf("seq %s contains non-amino-acid bytes", rec.ID)
		}
	}
	for _, m := range motifs {
		if len(m) != 30 || !spells(m, bio.ProteinAlphabet) {
			t.Error("bad motif")
		}
	}
}

func TestBlastQueryFileSet(t *testing.T) {
	_, motifs := ProteinDatabase(5, 10, 100, 200, 2, 20)
	files, err := BlastQueryFileSet(9, 4, 25, motifs, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("got %d files", len(files))
	}
	for name, doc := range files {
		recs, err := fasta.ParseBytes(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != 25 {
			t.Errorf("%s has %d queries, want 25", name, len(recs))
		}
		for _, r := range recs {
			if r.Len() != 80 {
				t.Errorf("%s query %s len %d, want 80", name, r.ID, r.Len())
			}
		}
	}
}

func TestChemicalPointsShapeAndDeterminism(t *testing.T) {
	a := ChemicalPoints(13, 50, 3)
	if len(a) != 50*PubChemDims {
		t.Fatalf("len = %d", len(a))
	}
	b := ChemicalPoints(13, 50, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestChemicalPointsLabeled(t *testing.T) {
	pts, labels := ChemicalPointsLabeled(17, 100, 4)
	if len(pts) != 100*PubChemDims || len(labels) != 100 {
		t.Fatalf("shapes: %d, %d", len(pts), len(labels))
	}
	seen := map[int]bool{}
	for _, l := range labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) < 3 {
		t.Errorf("expected most clusters present, got %d", len(seen))
	}
	// Same-cluster points should be closer on average than cross-cluster.
	dist := func(i, j int) float64 {
		var s float64
		for d := 0; d < PubChemDims; d++ {
			diff := pts[i*PubChemDims+d] - pts[j*PubChemDims+d]
			s += diff * diff
		}
		return s
	}
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			if labels[i] == labels[j] {
				same += dist(i, j)
				nSame++
			} else {
				cross += dist(i, j)
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate sample")
	}
	if same/float64(nSame) >= cross/float64(nCross) {
		t.Error("within-cluster distance should be below cross-cluster distance")
	}
}
