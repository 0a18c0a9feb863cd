// Pairwise distances: the Alu-clustering-style all-pairs alignment
// workload the paper's group also ran on these frameworks (Section 7).
// The upper-triangular Smith-Waterman-Gotoh distance matrix over a set
// of DNA sequences is tiled into independent blocks; each block is one
// task on the MapReduce substrate; the client stitches the matrix
// together and reports the nearest/farthest sequence pairs.
//
//	go run ./examples/pairwisedistances
package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"math"

	"repro/internal/align"
	"repro/internal/apps"
	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/workload"
)

const (
	nSeqs     = 24
	seqLen    = 200
	blockSize = 6
)

func main() {
	log.SetFlags(0)

	// Sequence families: three ancestral sequences, mutated copies — so
	// the distance matrix has visible block structure.
	ancestors := [][]byte{
		workload.Genome(1, seqLen),
		workload.Genome(2, seqLen),
		workload.Genome(3, seqLen),
	}
	seqs := make([]*fasta.Record, nSeqs)
	families := make([]int, nSeqs)
	for i := range seqs {
		fam := i % len(ancestors)
		families[i] = fam
		seq := append([]byte{}, ancestors[fam]...)
		// ~5% point mutations per copy.
		mut := workload.Genome(int64(100+i), seqLen)
		for j := range seq {
			if mut[j] == 'A' { // ≈25% of positions considered, then thinned
				if mut[(j+1)%seqLen] == 'C' {
					seq[j] = bio.DNAAlphabet[int(mut[(j+2)%seqLen])%4]
				}
			}
		}
		seqs[i] = &fasta.Record{ID: fmt.Sprintf("alu%02d_fam%d", i, fam), Seq: seq}
	}

	// One input file per matrix block.
	blocks := align.Blocks(nSeqs, blockSize)
	files := make(map[string][]byte, len(blocks))
	for i, blk := range blocks {
		enc, err := json.Marshal(blk)
		if err != nil {
			log.Fatal(err)
		}
		files[fmt.Sprintf("block%03d.json", i)] = enc
	}
	fmt.Printf("distance matrix: %d sequences → %d block tasks\n", nSeqs, len(blocks))

	sc := align.DefaultScoring()
	app := apps.App{Name: "swg-distance", Open: func(map[string][]byte) (apps.Process, error) {
		return func(name string, input []byte) ([]byte, error) {
			var blk align.Block
			if err := json.Unmarshal(input, &blk); err != nil {
				return nil, err
			}
			vals, err := align.ComputeBlock(seqs, blk, sc)
			if err != nil {
				return nil, err
			}
			out := make([]byte, 8*len(vals))
			for i, v := range vals {
				binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
			}
			return out, nil
		}, nil
	}}
	runner := core.MapReduceRunner{Nodes: 4, SlotsPerNode: 2}
	res, err := runner.Run(app, files, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("computed on %s in %v (locality %s)\n",
		res.Backend, res.Elapsed, res.Detail["locality_fraction"])

	// Stitch the matrix.
	matrix := make([][]float64, nSeqs)
	for i := range matrix {
		matrix[i] = make([]float64, nSeqs)
	}
	for i, blk := range blocks {
		out := res.Outputs[fmt.Sprintf("block%03d.json", i)]
		cols := blk.ColHi - blk.ColLo
		for r := blk.RowLo; r < blk.RowHi; r++ {
			for c := blk.ColLo; c < blk.ColHi; c++ {
				if c <= r {
					continue
				}
				idx := (r-blk.RowLo)*cols + (c - blk.ColLo)
				v := math.Float64frombits(binary.LittleEndian.Uint64(out[idx*8:]))
				matrix[r][c] = v
				matrix[c][r] = v
			}
		}
	}

	// Within-family distances must undercut cross-family distances.
	var within, cross float64
	var nw, nc int
	for i := 0; i < nSeqs; i++ {
		for j := i + 1; j < nSeqs; j++ {
			if families[i] == families[j] {
				within += matrix[i][j]
				nw++
			} else {
				cross += matrix[i][j]
				nc++
			}
		}
	}
	fmt.Printf("mean within-family distance: %.3f (%d pairs)\n", within/float64(nw), nw)
	fmt.Printf("mean cross-family distance:  %.3f (%d pairs)\n", cross/float64(nc), nc)
	if within/float64(nw) >= cross/float64(nc) {
		log.Fatal("family structure not recovered")
	}
	fmt.Println("family structure recovered from the distributed distance matrix")
}
