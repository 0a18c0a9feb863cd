// Package align implements pairwise sequence alignment — the other
// distributed biomedical application the paper's group built on these
// frameworks ("distributed pairwise sequence alignment applications
// using MapReduce programming models", Section 7 / ref [13], the
// Smith-Waterman-Gotoh distance computation of the Alu clustering
// pipeline). It provides global (Needleman–Wunsch) and local
// (Smith–Waterman) alignment with affine gaps for DNA, plus the blocked
// all-pairs distance-matrix decomposition that makes the computation
// pleasingly parallel: the upper-triangular matrix is tiled into
// independent blocks, one task per block.
package align

import (
	"fmt"

	"repro/internal/fasta"
)

// Scoring configures match/mismatch and affine gap penalties.
type Scoring struct {
	Match     int // reward for identical bases (> 0)
	Mismatch  int // penalty for substitutions (< 0)
	GapOpen   int // penalty to open a gap (< 0)
	GapExtend int // penalty to extend a gap (< 0)
}

// DefaultScoring matches EDNAFULL-style DNA scoring.
func DefaultScoring() Scoring {
	return Scoring{Match: 5, Mismatch: -4, GapOpen: -10, GapExtend: -1}
}

// Result is one alignment.
type Result struct {
	Score    int
	AlignedA []byte // with '-' gap characters
	AlignedB []byte
	// Start/End are the aligned span in each input (local alignment
	// only; global spans the whole inputs).
	AStart, AEnd int
	BStart, BEnd int
}

// Identity returns matching positions / alignment columns.
func (r *Result) Identity() float64 {
	if len(r.AlignedA) == 0 {
		return 0
	}
	m := 0
	for i := range r.AlignedA {
		if r.AlignedA[i] == r.AlignedB[i] && r.AlignedA[i] != '-' {
			m++
		}
	}
	return float64(m) / float64(len(r.AlignedA))
}

// direction codes for traceback.
const (
	trStop = iota
	trDiag
	trUp   // gap in b
	trLeft // gap in a
)

// Global computes a Needleman–Wunsch alignment with affine gaps.
func Global(a, b []byte, sc Scoring) *Result {
	n, m := len(a), len(b)
	const negInf = -1 << 30
	// Three-state Gotoh DP.
	h := make([][]int, n+1) // best
	e := make([][]int, n+1) // gap in a (left)
	f := make([][]int, n+1) // gap in b (up)
	tb := make([][]uint8, n+1)
	for i := range h {
		h[i] = make([]int, m+1)
		e[i] = make([]int, m+1)
		f[i] = make([]int, m+1)
		tb[i] = make([]uint8, m+1)
	}
	h[0][0] = 0
	for j := 1; j <= m; j++ {
		e[0][j] = sc.GapOpen + (j-1)*sc.GapExtend
		h[0][j] = e[0][j]
		f[0][j] = negInf
		tb[0][j] = trLeft
	}
	for i := 1; i <= n; i++ {
		f[i][0] = sc.GapOpen + (i-1)*sc.GapExtend
		h[i][0] = f[i][0]
		e[i][0] = negInf
		tb[i][0] = trUp
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			sub := sc.Mismatch
			if a[i-1] == b[j-1] {
				sub = sc.Match
			}
			diag := h[i-1][j-1] + sub
			e[i][j] = max(h[i][j-1]+sc.GapOpen, e[i][j-1]+sc.GapExtend)
			f[i][j] = max(h[i-1][j]+sc.GapOpen, f[i-1][j]+sc.GapExtend)
			best, dir := diag, uint8(trDiag)
			if e[i][j] > best {
				best, dir = e[i][j], trLeft
			}
			if f[i][j] > best {
				best, dir = f[i][j], trUp
			}
			h[i][j] = best
			tb[i][j] = dir
		}
	}
	res := traceback(a, b, tb, n, m, false, h[n][m])
	res.AStart, res.AEnd = 0, n
	res.BStart, res.BEnd = 0, m
	return res
}

func traceback(a, b []byte, tb [][]uint8, i, j int, local bool, score int) *Result {
	var ra, rb []byte
	for i > 0 || j > 0 {
		dir := tb[i][j]
		if local && dir == trStop {
			break
		}
		switch dir {
		case trDiag:
			ra = append(ra, a[i-1])
			rb = append(rb, b[j-1])
			i--
			j--
		case trUp:
			ra = append(ra, a[i-1])
			rb = append(rb, '-')
			i--
		case trLeft:
			ra = append(ra, '-')
			rb = append(rb, b[j-1])
			j--
		default:
			// Global alignment boundary rows carry explicit directions;
			// reaching trStop here means (0,0).
			i, j = 0, 0
		}
		if dir == trStop {
			break
		}
	}
	reverse(ra)
	reverse(rb)
	return &Result{Score: score, AlignedA: ra, AlignedB: rb}
}

func reverse(s []byte) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Distance converts an alignment into the dissimilarity used by the
// group's Alu clustering pipeline: 1 − identity.
func Distance(a, b []byte, sc Scoring) float64 {
	res := Global(a, b, sc)
	return 1 - res.Identity()
}

// Block is one tile of the all-pairs distance matrix: rows [RowLo,RowHi)
// against columns [ColLo,ColHi).
type Block struct {
	RowLo, RowHi int
	ColLo, ColHi int
}

// Blocks tiles the upper triangle (including the diagonal tiles) of an
// n×n all-pairs matrix into independent square-ish tasks.
func Blocks(n, blockSize int) []Block {
	if blockSize <= 0 {
		blockSize = 1
	}
	var out []Block
	for r := 0; r < n; r += blockSize {
		rHi := min(r+blockSize, n)
		for c := r; c < n; c += blockSize {
			out = append(out, Block{RowLo: r, RowHi: rHi, ColLo: c, ColHi: min(c+blockSize, n)})
		}
	}
	return out
}

// ComputeBlock fills one tile of the distance matrix. The returned slice
// is row-major over the block: (RowHi−RowLo) × (ColHi−ColLo). Cells on
// or below the global diagonal are 0 (they belong to the mirrored half).
func ComputeBlock(seqs []*fasta.Record, blk Block, sc Scoring) ([]float64, error) {
	if blk.RowHi > len(seqs) || blk.ColHi > len(seqs) || blk.RowLo < 0 || blk.ColLo < 0 {
		return nil, fmt.Errorf("align: block %+v out of range for %d sequences", blk, len(seqs))
	}
	rows := blk.RowHi - blk.RowLo
	cols := blk.ColHi - blk.ColLo
	out := make([]float64, rows*cols)
	for i := blk.RowLo; i < blk.RowHi; i++ {
		for j := blk.ColLo; j < blk.ColHi; j++ {
			if j <= i {
				continue
			}
			out[(i-blk.RowLo)*cols+(j-blk.ColLo)] = Distance(seqs[i].Seq, seqs[j].Seq, sc)
		}
	}
	return out, nil
}
