// Package workload generates the deterministic synthetic datasets that
// stand in for the paper's inputs: shotgun-sequencing FASTA files for
// Cap3, protein query files and an NR-like protein database for BLAST,
// and PubChem-like 166-dimensional chemical descriptor vectors for GTM
// Interpolation.
//
// All generators are seeded and reproducible so that tests, examples, and
// benchmarks observe identical inputs across runs.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/bio"
	"repro/internal/fasta"
)

// Genome synthesizes a random genome of the given length.
func Genome(seed int64, length int) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := make([]byte, length)
	for i := range g {
		g[i] = bio.DNAAlphabet[rng.Intn(4)]
	}
	return g
}

// ShotgunConfig controls synthetic shotgun read generation.
type ShotgunConfig struct {
	ReadLen      int     // mean read length (bases)
	ReadLenStdev float64 // standard deviation of read length
	ErrorRate    float64 // per-base substitution probability
	PoorEdgeLen  int     // length of low-quality leading/trailing junk added to reads
	PoorEdgeProb float64 // probability a read receives junk edges
	ReverseProb  float64 // probability a read is reverse-complemented
}

// DefaultShotgun mimics the paper's Cap3 inputs: Sanger-style reads of a
// few hundred bases with noisy ends.
func DefaultShotgun() ShotgunConfig {
	return ShotgunConfig{
		ReadLen:      300,
		ReadLenStdev: 30,
		ErrorRate:    0.005,
		PoorEdgeLen:  12,
		PoorEdgeProb: 0.35,
		ReverseProb:  0.5,
	}
}

// ShotgunReads shreds a genome into n overlapping reads with sequencing
// noise, returning FASTA records. Reads tile the genome uniformly so that
// full coverage is achieved when n·ReadLen substantially exceeds the
// genome length.
func ShotgunReads(seed int64, genome []byte, n int, cfg ShotgunConfig) []*fasta.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*fasta.Record, 0, n)
	for i := 0; i < n; i++ {
		rl := cfg.ReadLen
		if cfg.ReadLenStdev > 0 {
			rl = int(float64(cfg.ReadLen) + rng.NormFloat64()*cfg.ReadLenStdev)
		}
		if rl < 50 {
			rl = 50
		}
		if rl > len(genome) {
			rl = len(genome)
		}
		start := 0
		if len(genome) > rl {
			start = rng.Intn(len(genome) - rl + 1)
		}
		read := make([]byte, rl)
		copy(read, genome[start:start+rl])
		// Substitution errors.
		for j := range read {
			if rng.Float64() < cfg.ErrorRate {
				read[j] = bio.DNAAlphabet[rng.Intn(4)]
			}
		}
		// Low-quality edges: random junk that Cap3's trimmer must remove.
		if cfg.PoorEdgeLen > 0 && rng.Float64() < cfg.PoorEdgeProb {
			junk := func(n int) []byte {
				b := make([]byte, n)
				for j := range b {
					// Poor regions are biased toward one base, mimicking
					// mis-called homopolymer tails.
					if rng.Float64() < 0.7 {
						b[j] = 'A'
					} else {
						b[j] = bio.DNAAlphabet[rng.Intn(4)]
					}
				}
				return b
			}
			read = append(junk(cfg.PoorEdgeLen), read...)
			read = append(read, junk(cfg.PoorEdgeLen)...)
		}
		if rng.Float64() < cfg.ReverseProb {
			read = bio.ReverseComplement(read)
		}
		recs = append(recs, &fasta.Record{
			ID:          fmt.Sprintf("read%05d", i),
			Description: fmt.Sprintf("pos=%d len=%d", start, rl),
			Seq:         read,
		})
	}
	return recs
}

// Cap3File builds one FASTA input file of reads drawn from a fresh random
// genome, matching the paper's "each file containing N reads" setup.
func Cap3File(seed int64, reads, genomeLen int) ([]byte, error) {
	genome := Genome(seed, genomeLen)
	recs := ShotgunReads(seed+1, genome, reads, DefaultShotgun())
	return fasta.MarshalRecords(recs)
}

// Cap3FileSet builds n FASTA files. If inhomogeneity > 0, read counts vary
// by ±inhomogeneity fraction around readsPerFile, reproducing the skewed
// workloads of the paper's load-balancing study; at 0 every file is a
// replica of the same shape (the paper's homogeneous scalability setup).
func Cap3FileSet(seed int64, n, readsPerFile, genomeLen int, inhomogeneity float64) (map[string][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		reads := readsPerFile
		if inhomogeneity > 0 {
			f := 1 + (rng.Float64()*2-1)*inhomogeneity
			reads = int(float64(readsPerFile) * f)
			if reads < 8 {
				reads = 8
			}
		}
		doc, err := Cap3File(seed+int64(i)*101, reads, genomeLen)
		if err != nil {
			return nil, err
		}
		files[fmt.Sprintf("cap3_input_%04d.fsa", i)] = doc
	}
	return files, nil
}

// Protein synthesizes a random protein sequence with natural-ish
// amino-acid frequencies (uniform is close enough for search behaviour).
func Protein(rng *rand.Rand, length int) []byte {
	p := make([]byte, length)
	for i := range p {
		p[i] = bio.ProteinAlphabet[rng.Intn(20)]
	}
	return p
}

// ProteinDatabase builds an NR-like database of nSeqs random proteins of
// lengths in [minLen, maxLen]. A fraction of database sequences embed
// motifs from the returned motif list so that queries derived from those
// motifs produce genuine hits.
func ProteinDatabase(seed int64, nSeqs, minLen, maxLen, nMotifs, motifLen int) (db []*fasta.Record, motifs [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	motifs = make([][]byte, nMotifs)
	for i := range motifs {
		motifs[i] = Protein(rng, motifLen)
	}
	db = make([]*fasta.Record, nSeqs)
	for i := range db {
		l := minLen
		if maxLen > minLen {
			l += rng.Intn(maxLen - minLen)
		}
		seq := Protein(rng, l)
		// Every third sequence hosts a (lightly mutated) motif.
		if nMotifs > 0 && i%3 == 0 {
			m := motifs[rng.Intn(nMotifs)]
			mut := make([]byte, len(m))
			copy(mut, m)
			for j := range mut {
				if rng.Float64() < 0.05 {
					mut[j] = bio.ProteinAlphabet[rng.Intn(20)]
				}
			}
			pos := 0
			if l > len(mut) {
				pos = rng.Intn(l - len(mut))
			}
			copy(seq[pos:], mut)
		}
		db[i] = &fasta.Record{ID: fmt.Sprintf("nr|%06d", i), Seq: seq}
	}
	return db, motifs
}

// BlastQueryFile bundles nQueries protein queries into one FASTA file,
// matching the paper's "100 queries per file" granularity. Queries are a
// mix of motif-derived sequences (guaranteed hits) and random ones.
func BlastQueryFile(seed int64, nQueries int, motifs [][]byte, queryLen int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*fasta.Record, nQueries)
	for i := range recs {
		var seq []byte
		if len(motifs) > 0 && i%2 == 0 {
			m := motifs[rng.Intn(len(motifs))]
			seq = make([]byte, 0, queryLen)
			seq = append(seq, Protein(rng, (queryLen-len(m))/2)...)
			seq = append(seq, m...)
			seq = append(seq, Protein(rng, queryLen-len(seq))...)
		} else {
			seq = Protein(rng, queryLen)
		}
		recs[i] = &fasta.Record{ID: fmt.Sprintf("query%04d", i), Seq: seq}
	}
	return fasta.MarshalRecords(recs)
}

// BlastQueryFileSet builds n query files of nQueries sequences each.
func BlastQueryFileSet(seed int64, n, nQueries int, motifs [][]byte, queryLen int) (map[string][]byte, error) {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		doc, err := BlastQueryFile(seed+int64(i)*17, nQueries, motifs, queryLen)
		if err != nil {
			return nil, err
		}
		files[fmt.Sprintf("blast_query_%04d.fa", i)] = doc
	}
	return files, nil
}

// PubChemDims is the descriptor dimensionality of the paper's PubChem
// dataset (166-bit MACCS keys treated as a dense vector).
const PubChemDims = 166

// ChemicalPoints draws n PubChem-like descriptor vectors from a mixture
// of nClusters Gaussians in PubChemDims dimensions. Returned row-major:
// points[i*PubChemDims : (i+1)*PubChemDims].
func ChemicalPoints(seed int64, n, nClusters int) []float64 {
	pts, _ := ChemicalPointsLabeled(seed, n, nClusters)
	return pts
}

// ChemicalPointsLabeled is ChemicalPoints but also returns the cluster
// label of each point, for tests that verify GTM separates the mixture.
func ChemicalPointsLabeled(seed int64, n, nClusters int) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, nClusters)
	for c := range centers {
		centers[c] = make([]float64, PubChemDims)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 3
		}
	}
	pts := make([]float64, n*PubChemDims)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(nClusters)
		labels[i] = k
		c := centers[k]
		row := pts[i*PubChemDims : (i+1)*PubChemDims]
		for d := range row {
			row[d] = c[d] + rng.NormFloat64()*0.8
		}
	}
	return pts, labels
}
