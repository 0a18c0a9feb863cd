package align

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fasta"
	"repro/internal/workload"
)

func TestGlobalIdenticalSequences(t *testing.T) {
	sc := DefaultScoring()
	seq := []byte("ACGTACGTAC")
	res := Global(seq, seq, sc)
	if res.Score != len(seq)*sc.Match {
		t.Errorf("score = %d, want %d", res.Score, len(seq)*sc.Match)
	}
	if res.Identity() != 1.0 {
		t.Errorf("identity = %v", res.Identity())
	}
	if !bytes.Equal(res.AlignedA, seq) || !bytes.Equal(res.AlignedB, seq) {
		t.Errorf("alignment mutated sequences: %s / %s", res.AlignedA, res.AlignedB)
	}
}

func TestGlobalSingleSubstitution(t *testing.T) {
	sc := DefaultScoring()
	res := Global([]byte("ACGTACGT"), []byte("ACGAACGT"), sc)
	want := 7*sc.Match + sc.Mismatch
	if res.Score != want {
		t.Errorf("score = %d, want %d", res.Score, want)
	}
	if len(res.AlignedA) != 8 {
		t.Errorf("alignment length %d, want 8 (no gaps)", len(res.AlignedA))
	}
}

func TestGlobalInsertionMakesGap(t *testing.T) {
	sc := DefaultScoring()
	a := []byte("ACGTTTACGT")
	b := []byte("ACGTACGT") // missing "TT"
	res := Global(a, b, sc)
	gaps := bytes.Count(res.AlignedB, []byte("-"))
	if gaps != 2 {
		t.Errorf("gaps in b = %d, want 2\n%s\n%s", gaps, res.AlignedA, res.AlignedB)
	}
	// Affine: one open + one extend, not two opens.
	want := 8*sc.Match + sc.GapOpen + sc.GapExtend
	if res.Score != want {
		t.Errorf("score = %d, want %d", res.Score, want)
	}
}

func TestGlobalEmptySequence(t *testing.T) {
	sc := DefaultScoring()
	res := Global(nil, []byte("ACG"), sc)
	if len(res.AlignedA) != 3 || string(res.AlignedA) != "---" {
		t.Errorf("aligned A = %q", res.AlignedA)
	}
	if res.Score != sc.GapOpen+2*sc.GapExtend {
		t.Errorf("score = %d", res.Score)
	}
}

// Property: global alignment of a sequence with itself scores
// len×Match, and alignment is symmetric in score.
func TestQuickGlobalProperties(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(9))
	f := func(la, lb uint8) bool {
		a := workload.Genome(rng.Int63(), int(la)%60+1)
		b := workload.Genome(rng.Int63(), int(lb)%60+1)
		ab := Global(a, b, sc)
		ba := Global(b, a, sc)
		if ab.Score != ba.Score {
			return false
		}
		self := Global(a, a, sc)
		return self.Score == len(a)*sc.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceProperties(t *testing.T) {
	sc := DefaultScoring()
	a := workload.Genome(21, 100)
	if d := Distance(a, a, sc); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	b := workload.Genome(22, 100)
	d := Distance(a, b, sc)
	if d <= 0 || d > 1 {
		t.Errorf("distance = %v, want (0,1]", d)
	}
	if d2 := Distance(b, a, sc); d2 != d {
		t.Errorf("distance not symmetric: %v vs %v", d, d2)
	}
}

func TestBlocksCoverUpperTriangleExactlyOnce(t *testing.T) {
	n, bs := 13, 4
	blocks := Blocks(n, bs)
	covered := map[[2]int]int{}
	for _, blk := range blocks {
		for i := blk.RowLo; i < blk.RowHi; i++ {
			for j := max(blk.ColLo, i+1); j < blk.ColHi; j++ {
				covered[[2]int{i, j}]++
			}
		}
	}
	want := n * (n - 1) / 2
	if len(covered) != want {
		t.Fatalf("covered %d pairs, want %d", len(covered), want)
	}
	for pair, c := range covered {
		if c != 1 {
			t.Fatalf("pair %v covered %d times", pair, c)
		}
	}
}

func TestComputeBlockMatchesDirect(t *testing.T) {
	sc := DefaultScoring()
	var seqs []*fasta.Record
	for i := 0; i < 6; i++ {
		seqs = append(seqs, &fasta.Record{
			ID:  string(rune('a' + i)),
			Seq: workload.Genome(int64(i), 50),
		})
	}
	blk := Block{RowLo: 0, RowHi: 3, ColLo: 3, ColHi: 6}
	got, err := ComputeBlock(seqs, blk, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			want := Distance(seqs[i].Seq, seqs[j].Seq, sc)
			if got[i*3+(j-3)] != want {
				t.Errorf("block[%d][%d] = %v, want %v", i, j, got[i*3+(j-3)], want)
			}
		}
	}
}

func TestComputeBlockDiagonalZeros(t *testing.T) {
	sc := DefaultScoring()
	seqs := []*fasta.Record{
		{ID: "a", Seq: workload.Genome(1, 40)},
		{ID: "b", Seq: workload.Genome(2, 40)},
	}
	got, err := ComputeBlock(seqs, Block{RowLo: 0, RowHi: 2, ColLo: 0, ColHi: 2}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[3] != 0 || got[2] != 0 {
		t.Errorf("diagonal/lower cells should be 0: %v", got)
	}
	if got[1] == 0 {
		t.Error("upper cell should be a real distance")
	}
}

func TestComputeBlockOutOfRange(t *testing.T) {
	if _, err := ComputeBlock(nil, Block{RowHi: 1, ColHi: 1}, DefaultScoring()); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func BenchmarkGlobal300bp(b *testing.B) {
	sc := DefaultScoring()
	x := workload.Genome(1, 300)
	y := workload.Genome(2, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Global(x, y, sc)
	}
}
