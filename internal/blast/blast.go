// Package blast implements a BLASTP-style protein similarity search
// engine, the real computation behind the paper's BLAST workload. It
// follows the classic NCBI BLAST pipeline: a word index over the
// database, neighborhood word seeding under BLOSUM62 with a score
// threshold, the two-hit diagonal heuristic, ungapped X-drop extension,
// banded gapped extension, and Karlin–Altschul E-value statistics.
//
// Like the paper's setup, the database is staged to every worker before
// its first query file — as FASTA documents, indexed (the paper's
// "extracted") when the application opens (internal/apps) — and then
// searched by many independent query files, optionally with multiple
// threads per worker, reproducing the workers-versus-threads trade-off
// of Figure 9.
package blast

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/bio"
	"repro/internal/fasta"
)

// Options configure a search. Zero values select NCBI-like defaults.
type Options struct {
	WordSize     int     // seed word length (default 3)
	Threshold    int     // neighborhood word score threshold T (default 11)
	TwoHitWindow int     // max diagonal distance between paired hits (default 40)
	XDrop        int     // ungapped extension X-drop (default 7)
	GapOpen      int     // gap open penalty (default 11)
	GapExtend    int     // gap extend penalty (default 1)
	Band         int     // half band width for gapped extension (default 12)
	MaxEValue    float64 // report threshold (default 10)
	UngappedCut  int     // min ungapped score to attempt gapped extension (default 22)
	Threads      int     // worker threads for SearchAll (default GOMAXPROCS)
}

func (o Options) withDefaults() Options {
	if o.WordSize == 0 {
		o.WordSize = 3
	}
	if o.Threshold == 0 {
		o.Threshold = 11
	}
	if o.TwoHitWindow == 0 {
		o.TwoHitWindow = 40
	}
	if o.XDrop == 0 {
		o.XDrop = 7
	}
	if o.GapOpen == 0 {
		o.GapOpen = 11
	}
	if o.GapExtend == 0 {
		o.GapExtend = 1
	}
	if o.Band == 0 {
		o.Band = 12
	}
	if o.MaxEValue == 0 {
		o.MaxEValue = 10
	}
	if o.UngappedCut == 0 {
		o.UngappedCut = 22
	}
	if o.Threads == 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// Karlin–Altschul parameters for BLOSUM62 with gap costs 11/1.
const (
	kaLambda = 0.267
	kaK      = 0.041
)

// Hit is one reported high-scoring segment pair.
type Hit struct {
	QueryID   string
	SubjectID string
	Score     int     // raw alignment score
	BitScore  float64 // normalized score
	EValue    float64
	QStart    int // 0-based inclusive
	QEnd      int // 0-based exclusive
	SStart    int
	SEnd      int
	AlignLen  int
	Matches   int // identical positions
}

// Identity returns the fraction of identical aligned positions.
func (h Hit) Identity() float64 {
	if h.AlignLen == 0 {
		return 0
	}
	return float64(h.Matches) / float64(h.AlignLen)
}

// loc is one database word occurrence.
type loc struct {
	seq int32
	pos int32
}

// Database is a searchable protein collection with its word index. A
// Database is immutable after construction and safe for concurrent
// searches — this is what lets one in-memory copy be shared by several
// worker threads on an instance, the paper's "load and reuse the whole
// BLAST database in memory".
type Database struct {
	Seqs     []*fasta.Record
	TotalLen int
	wordSize int
	index    map[int32][]loc
}

// NewDatabase indexes the given sequences with the default word size.
func NewDatabase(seqs []*fasta.Record) *Database {
	return NewDatabaseWordSize(seqs, 3)
}

// NewDatabaseWordSize indexes with an explicit word size (2..5).
func NewDatabaseWordSize(seqs []*fasta.Record, w int) *Database {
	if w < 2 || w > 5 {
		panic(fmt.Sprintf("blast: word size %d out of range [2,5]", w))
	}
	db := &Database{Seqs: seqs, wordSize: w, index: make(map[int32][]loc)}
	for si, rec := range seqs {
		db.TotalLen += rec.Len()
		seq := rec.Seq
		for p := 0; p+w <= len(seq); p++ {
			key, ok := encodeWord(seq[p:p+w], w)
			if !ok {
				continue
			}
			db.index[key] = append(db.index[key], loc{seq: int32(si), pos: int32(p)})
		}
	}
	return db
}

// encodeWord packs w residues into a base-20 key.
func encodeWord(seq []byte, w int) (int32, bool) {
	var key int32
	for i := 0; i < w; i++ {
		idx := bio.AAIndex(seq[i])
		if idx < 0 {
			return 0, false
		}
		key = key*20 + int32(idx)
	}
	return key, true
}

// neighborhood returns all index keys whose word scores at least
// threshold against the query word, via depth-first enumeration with
// branch-and-bound pruning.
func neighborhood(qword []byte, w, threshold int, out []int32) []int32 {
	// maxTail[i] = max achievable score from positions i..w-1.
	maxTail := make([]int, w+1)
	for i := w - 1; i >= 0; i-- {
		best := math.MinInt32
		qi := bio.AAIndex(qword[i])
		if qi < 0 {
			return out
		}
		for j := 0; j < 20; j++ {
			if s := int(bio.Blosum62[qi][j]); s > best {
				best = s
			}
		}
		maxTail[i] = maxTail[i+1] + best
	}
	var rec func(pos, score int, key int32)
	rec = func(pos, score int, key int32) {
		if pos == w {
			if score >= threshold {
				out = append(out, key)
			}
			return
		}
		if score+maxTail[pos] < threshold {
			return
		}
		qi := bio.AAIndex(qword[pos])
		for j := 0; j < 20; j++ {
			rec(pos+1, score+int(bio.Blosum62[qi][j]), key*20+int32(j))
		}
	}
	rec(0, 0, 0)
	return out
}

// SearchStats counts work done during one query search, used for
// workload calibration and tests.
type SearchStats struct {
	SeedHits       int
	TwoHitTriggers int
	UngappedExts   int
	GappedExts     int
	HSPs           int
}

// Search runs one query against the database, returning hits sorted by
// increasing E-value.
func (db *Database) Search(query *fasta.Record, opt Options) []Hit {
	hits, _ := db.SearchWithStats(query, opt)
	return hits
}

// SearchWithStats is Search plus work counters.
func (db *Database) SearchWithStats(query *fasta.Record, opt Options) ([]Hit, SearchStats) {
	opt = opt.withDefaults()
	if opt.WordSize != db.wordSize {
		opt.WordSize = db.wordSize
	}
	var stats SearchStats
	q := query.Seq
	w := db.wordSize
	if len(q) < w {
		return nil, stats
	}

	type diagKey struct {
		seq  int32
		diag int32
	}
	lastHit := make(map[diagKey]int32)    // diag → last query pos seeded
	extendedTo := make(map[diagKey]int32) // diag → query pos already covered by an extension
	var hsps []Hit
	neigh := make([]int32, 0, 64)
	var gapped []int // gappedExtend's matrices, grown once and shared by every extension of this query

	for qp := 0; qp+w <= len(q); qp++ {
		neigh = neighborhood(q[qp:qp+w], w, opt.Threshold, neigh[:0])
		for _, key := range neigh {
			for _, l := range db.index[key] {
				stats.SeedHits++
				dk := diagKey{seq: l.seq, diag: l.pos - int32(qp)}
				prev, seen := lastHit[dk]
				if !seen {
					lastHit[dk] = int32(qp)
					continue
				}
				dist := int32(qp) - prev
				if dist < int32(w) {
					continue // overlaps the previous hit; keep the earlier anchor
				}
				lastHit[dk] = int32(qp)
				if dist > int32(opt.TwoHitWindow) {
					continue // too far apart to pair; restart from this hit
				}
				if covered, ok := extendedTo[dk]; ok && int32(qp) < covered {
					continue // this diagonal region was already extended
				}
				stats.TwoHitTriggers++
				subj := db.Seqs[l.seq].Seq
				stats.UngappedExts++
				score, qs, qe := ungappedExtend(q, subj, qp, int(l.pos), w, opt.XDrop)
				extendedTo[dk] = int32(qe)
				if score < opt.UngappedCut {
					continue
				}
				stats.GappedExts++
				hit := gappedExtend(q, subj, qs, qs+int(dk.diag), qe-qs, opt, &gapped)
				hit.QueryID = query.ID
				hit.SubjectID = db.Seqs[l.seq].ID
				hit.EValue = evalue(hit.Score, len(q), db.TotalLen)
				hit.BitScore = bitScore(hit.Score)
				if hit.EValue <= opt.MaxEValue {
					stats.HSPs++
					hsps = append(hsps, hit)
				}
			}
		}
	}
	hsps = dedupeHits(hsps)
	sort.Slice(hsps, func(i, j int) bool {
		if hsps[i].EValue != hsps[j].EValue {
			return hsps[i].EValue < hsps[j].EValue
		}
		return hsps[i].SubjectID < hsps[j].SubjectID
	})
	return hsps, stats
}

// dedupeHits keeps the best-scoring hit per (query, subject) overlapping
// region.
func dedupeHits(hits []Hit) []Hit {
	best := make(map[string]Hit, len(hits))
	for _, h := range hits {
		k := h.QueryID + "\x00" + h.SubjectID
		if cur, ok := best[k]; !ok || h.Score > cur.Score {
			best[k] = h
		}
	}
	out := make([]Hit, 0, len(best))
	for _, h := range best {
		out = append(out, h)
	}
	return out
}

// ungappedExtend grows a word hit left and right along the diagonal,
// stopping when the running score drops more than xdrop below the best.
// It returns the best score and the query extent [qs, qe).
func ungappedExtend(q, s []byte, qp, sp, w, xdrop int) (score, qs, qe int) {
	// Seed score.
	best := 0
	for i := 0; i < w; i++ {
		best += bio.Score62(q[qp+i], s[sp+i])
	}
	cur := best
	// Right extension.
	bestRight := 0
	run := 0
	for i := w; qp+i < len(q) && sp+i < len(s); i++ {
		run += bio.Score62(q[qp+i], s[sp+i])
		if run > bestRight {
			bestRight = run
		}
		if bestRight-run > xdrop {
			break
		}
	}
	// Left extension.
	bestLeft := 0
	run = 0
	leftLen := 0
	bestLeftLen := 0
	for i := 1; qp-i >= 0 && sp-i >= 0; i++ {
		run += bio.Score62(q[qp-i], s[sp-i])
		leftLen = i
		if run > bestLeft {
			bestLeft = run
			bestLeftLen = leftLen
		}
		if bestLeft-run > xdrop {
			break
		}
	}
	cur = best + bestRight + bestLeft
	qs = qp - bestLeftLen
	// Right best length: recompute to get extent.
	run, bestRight = 0, 0
	bestRightLen := 0
	for i := w; qp+i < len(q) && sp+i < len(s); i++ {
		run += bio.Score62(q[qp+i], s[sp+i])
		if run > bestRight {
			bestRight = run
			bestRightLen = i - w + 1
		}
		if bestRight-run > xdrop {
			break
		}
	}
	qe = qp + w + bestRightLen
	return cur, qs, qe
}

// gappedExtend performs a banded Smith–Waterman alignment of the query
// window around the seeded region against the subject, anchored on the
// seed diagonal. Its three score matrices live in *scratch, which it grows
// as needed and leaves for the next call to overwrite.
func gappedExtend(q, s []byte, qAnchor, sAnchor, anchorLen int, opt Options, scratch *[]int) Hit {
	// Align a generous window around the anchor.
	margin := opt.Band * 4
	qLo := max(0, qAnchor-margin-anchorLen)
	qHi := min(len(q), qAnchor+anchorLen+margin)
	sLo := max(0, sAnchor-margin-anchorLen)
	sHi := min(len(s), sAnchor+anchorLen+margin)
	qw := q[qLo:qHi]
	sw := s[sLo:sHi]
	diag := (sAnchor - sLo) - (qAnchor - qLo)

	n, m := len(qw), len(sw)
	band := opt.Band
	// Smith-Waterman with affine gaps restricted to |j - i - diag| ≤ band.
	negInf := math.MinInt32 / 4
	width := 2*band + 1
	size := (n + 1) * width
	*scratch = slices.Grow((*scratch)[:0], 3*size)[:3*size]
	H := (*scratch)[:size]
	E := (*scratch)[size : 2*size] // gap in query
	F := (*scratch)[2*size:]       // gap in subject
	at := func(i, j int) int {     // banded column index for row i
		return j - (i + diag) + band
	}
	for i := range H {
		H[i], E[i], F[i] = 0, negInf, negInf
	}
	bestScore, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		jLo := max(1, i+diag-band)
		jHi := min(m, i+diag+band)
		for j := jLo; j <= jHi; j++ {
			c := at(i, j)
			if c < 0 || c >= width {
				continue
			}
			var diagH int
			cd := at(i-1, j-1)
			if cd >= 0 && cd < width {
				diagH = H[(i-1)*width+cd]
			} else {
				diagH = negInf
			}
			match := diagH + bio.Score62(qw[i-1], sw[j-1])
			var upH, upE int
			cu := at(i-1, j)
			if cu >= 0 && cu < width {
				upH, upE = H[(i-1)*width+cu], E[(i-1)*width+cu]
			} else {
				upH, upE = negInf, negInf
			}
			e := max(upH-opt.GapOpen, upE-opt.GapExtend)
			var leftH, leftF int
			cl := at(i, j-1)
			if cl >= 0 && cl < width {
				leftH, leftF = H[i*width+cl], F[i*width+cl]
			} else {
				leftH, leftF = negInf, negInf
			}
			f := max(leftH-opt.GapOpen, leftF-opt.GapExtend)
			h := max(0, max(match, max(e, f)))
			H[i*width+c], E[i*width+c], F[i*width+c] = h, e, f
			if h > bestScore {
				bestScore, bi, bj = h, i, j
			}
		}
	}
	// Traceback from (bi,bj) to recover extents and identity.
	matches, alen := 0, 0
	i, j := bi, bj
	for i > 0 && j > 0 {
		c := at(i, j)
		if c < 0 || c >= width || H[i*width+c] == 0 {
			break
		}
		h := H[i*width+c]
		var diagH int
		cd := at(i-1, j-1)
		if cd >= 0 && cd < width {
			diagH = H[(i-1)*width+cd]
		} else {
			diagH = negInf
		}
		if h == diagH+bio.Score62(qw[i-1], sw[j-1]) {
			if qw[i-1] == sw[j-1] {
				matches++
			}
			alen++
			i--
			j--
			continue
		}
		if c == at(i, j) && E[i*width+c] == h {
			alen++
			i--
			continue
		}
		alen++
		j--
	}
	return Hit{
		Score:    bestScore,
		QStart:   qLo + i,
		QEnd:     qLo + bi,
		SStart:   sLo + j,
		SEnd:     sLo + bj,
		AlignLen: alen,
		Matches:  matches,
	}
}

func evalue(score, qLen, dbLen int) float64 {
	return kaK * float64(qLen) * float64(dbLen) * math.Exp(-kaLambda*float64(score))
}

func bitScore(score int) float64 {
	return (kaLambda*float64(score) - math.Log(kaK)) / math.Ln2
}

// SearchAll searches many queries concurrently with opt.Threads workers,
// reproducing the "multiple BLAST threads per worker" configuration of
// the paper's Azure study. Results are keyed by query ID.
func (db *Database) SearchAll(queries []*fasta.Record, opt Options) map[string][]Hit {
	opt = opt.withDefaults()
	results := make(map[string][]Hit, len(queries))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan *fasta.Record)
	for t := 0; t < opt.Threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range work {
				hits := db.Search(rec, opt)
				mu.Lock()
				results[rec.ID] = hits
				mu.Unlock()
			}
		}()
	}
	for _, rec := range queries {
		work <- rec
	}
	close(work)
	wg.Wait()
	return results
}

// Run is the executable-style entry point used by the execution
// frameworks: a FASTA document of queries in, tabular results out
// (query, subject, %identity, length, bitscore, evalue — the shape of
// BLAST's -outfmt 6).
func Run(queryFile []byte, db *Database, opt Options) ([]byte, error) {
	queries, err := fasta.ParseBytes(queryFile)
	if err != nil {
		return nil, fmt.Errorf("blast: parsing queries: %w", err)
	}
	results := db.SearchAll(queries, opt)
	var b strings.Builder
	for _, q := range queries {
		for _, h := range results[q.ID] {
			fmt.Fprintf(&b, "%s\t%s\t%.1f\t%d\t%.1f\t%.2g\n",
				h.QueryID, h.SubjectID, 100*h.Identity(), h.AlignLen, h.BitScore, h.EValue)
		}
	}
	return []byte(b.String()), nil
}
