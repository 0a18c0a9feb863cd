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

// wordSize is the seed word length, NCBI BLASTP's default; numWords is
// the number of distinct words over the 20-letter alphabet.
const (
	wordSize = 3
	numWords = 20 * 20 * 20
)

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
	// The word index in CSR form: the occurrences of word key are
	// locs[wordStart[key]:wordStart[key+1]], by subject then position.
	wordStart []int32
	locs      []loc
	start     []int // start[s]: residues in the subjects before s
}

// NewDatabase indexes the given sequences.
func NewDatabase(seqs []*fasta.Record) *Database {
	db := &Database{Seqs: seqs, wordStart: make([]int32, numWords+1), start: make([]int, len(seqs))}
	for si, rec := range seqs {
		db.start[si] = db.TotalLen
		db.TotalLen += rec.Len()
		for p := 0; p+wordSize <= len(rec.Seq); p++ {
			if key, ok := encodeWord(rec.Seq[p:]); ok {
				db.wordStart[key+1]++
			}
		}
	}
	for k := 1; k <= numWords; k++ {
		db.wordStart[k] += db.wordStart[k-1]
	}
	db.locs = make([]loc, db.wordStart[numWords])
	next := slices.Clone(db.wordStart[:numWords])
	for si, rec := range seqs {
		for p := 0; p+wordSize <= len(rec.Seq); p++ {
			if key, ok := encodeWord(rec.Seq[p:]); ok {
				db.locs[next[key]] = loc{seq: int32(si), pos: int32(p)}
				next[key]++
			}
		}
	}
	return db
}

// encodeWord packs the first wordSize residues of seq into a base-20 key.
func encodeWord(seq []byte) (int32, bool) {
	var key int32
	for _, c := range seq[:wordSize] {
		idx := bio.AAIndex(c)
		if idx < 0 {
			return 0, false
		}
		key = key*20 + int32(idx)
	}
	return key, true
}

// neighborhood appends to out every word key that scores at least
// threshold against the query word, in increasing key order, pruning a
// prefix once even the best remaining residues cannot reach threshold.
func neighborhood(qword []byte, threshold int, out []int32) []int32 {
	var rows [wordSize]*[20]int8
	for i := range rows {
		qi := bio.AAIndex(qword[i])
		if qi < 0 {
			return out
		}
		rows[i] = &bio.Blosum62[qi]
	}
	// tail[i] = best score achievable from positions i..wordSize-1.
	var tail [wordSize + 1]int
	for i := wordSize - 1; i >= 0; i-- {
		tail[i] = tail[i+1] + int(slices.Max(rows[i][:]))
	}
	for a, sa := range rows[0] {
		s1 := int(sa)
		if s1+tail[1] < threshold {
			continue
		}
		for b, sb := range rows[1] {
			s2 := s1 + int(sb)
			if s2+tail[2] < threshold {
				continue
			}
			for c, sc := range rows[2] {
				if s2+int(sc) >= threshold {
					out = append(out, int32((a*20+b)*20+c))
				}
			}
		}
	}
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

// diagState is the two-hit bookkeeping of one (subject, diagonal): the
// query position of the last seed on it plus one (0: none yet), and the
// query position an extension along it already reached.
type diagState struct {
	last, covered int32
}

// SearchWithStats is Search plus work counters. The two-hit state is one
// dense slot per (subject, diagonal): subject s owns len(s)+len(q) slots
// from base(s) = start[s] + s·len(q), and diagonal d = spos − qpos sits at
// base(s) + d + len(q).
func (db *Database) SearchWithStats(query *fasta.Record, opt Options) ([]Hit, SearchStats) {
	opt = opt.withDefaults()
	var stats SearchStats
	q := query.Seq
	lq := len(q)
	if lq < wordSize {
		return nil, stats
	}

	diags := make([]diagState, db.TotalLen+len(db.Seqs)*lq)
	var hsps []Hit
	neigh := make([]int32, 0, 64)
	var gapped []int // gappedExtend's matrices, grown once and shared by every extension of this query

	for qp := 0; qp+wordSize <= lq; qp++ {
		neigh = neighborhood(q[qp:qp+wordSize], opt.Threshold, neigh[:0])
		for _, key := range neigh {
			for _, l := range db.locs[db.wordStart[key]:db.wordStart[key+1]] {
				stats.SeedHits++
				diag := int(l.pos) - qp
				st := &diags[db.start[l.seq]+int(l.seq+1)*lq+diag]
				if st.last == 0 {
					st.last = int32(qp + 1)
					continue
				}
				dist := qp + 1 - int(st.last)
				if dist < wordSize {
					continue // overlaps the previous hit; keep the earlier anchor
				}
				st.last = int32(qp + 1)
				if dist > opt.TwoHitWindow {
					continue // too far apart to pair; restart from this hit
				}
				if qp < int(st.covered) {
					continue // this diagonal region was already extended
				}
				stats.TwoHitTriggers++
				subj := db.Seqs[l.seq].Seq
				stats.UngappedExts++
				score, qs, qe := ungappedExtend(q, subj, qp, int(l.pos), wordSize, opt.XDrop)
				st.covered = int32(qe)
				if score < opt.UngappedCut {
					continue
				}
				stats.GappedExts++
				hit := gappedExtend(q, subj, qs, qs+diag, qe-qs, opt, &gapped)
				hit.QueryID = query.ID
				hit.SubjectID = db.Seqs[l.seq].ID
				hit.EValue = evalue(hit.Score, lq, db.TotalLen)
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
// seed diagonal. Its two stored score matrices live in *scratch, which it
// grows as needed and leaves for the next call to overwrite.
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
	// Smith-Waterman with affine gaps restricted to |j - i - diag| ≤ band:
	// row i stores band column c at i·width + c, for subject column
	// j = i + diag - band + c. Cell (i-1, j-1) is then column c of the row
	// above, (i-1, j) column c+1, and (i, j-1) column c-1 of this row. A
	// cell off the subject holds H = 0, E = -∞ (the gap in the subject,
	// F, is only ever read from the cell just computed).
	width := 2*band + 1
	size := (n + 1) * width
	*scratch = slices.Grow((*scratch)[:0], 2*size)[:2*size]
	H := (*scratch)[:size]
	E := (*scratch)[size:] // gap in query
	offSubject(H[:width], E[:width])
	open, extend := opt.GapOpen, opt.GapExtend
	bestScore, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		prev, row := (i-1)*width, i*width
		Hp, Ep := H[prev:prev+width], E[prev:prev+width]
		Hr, Er := H[row:row+width], E[row:row+width]
		j0 := i + diag - band // subject column of band column 0
		cLo, cHi := max(0, 1-j0), min(width-1, m-j0)
		if cLo > cHi {
			offSubject(Hr, Er)
			continue
		}
		offSubject(Hr[:cLo], Er[:cLo])
		offSubject(Hr[cHi+1:], Er[cHi+1:])
		leftH, leftF := negInf, negInf
		if cLo > 0 {
			leftH = Hr[cLo-1]
		}
		scores, sr := &score62[qw[i-1]], sw[j0+cLo-1:j0+cHi]
		for c := cLo; c <= cHi; c++ {
			match := Hp[c] + int(scores[sr[c-cLo]])
			upH, upE := negInf, negInf
			if c+1 < width {
				upH, upE = Hp[c+1], Ep[c+1]
			}
			e := max(upH-open, upE-extend)
			f := max(leftH-open, leftF-extend)
			h := max(0, max(match, max(e, f)))
			Hr[c], Er[c] = h, e
			leftH, leftF = h, f
			if h > bestScore {
				bestScore, bi, bj = h, i, j0+c
			}
		}
	}
	// Traceback from (bi,bj) to recover extents and identity; a step that
	// leaves the band ends it.
	matches, alen := 0, 0
	i, j := bi, bj
	for i > 0 && j > 0 {
		c := j - (i + diag) + band
		if c < 0 || c >= width || H[i*width+c] == 0 {
			break
		}
		h := H[i*width+c]
		if h == H[(i-1)*width+c]+bio.Score62(qw[i-1], sw[j-1]) {
			if qw[i-1] == sw[j-1] {
				matches++
			}
			alen++
			i--
			j--
			continue
		}
		alen++
		if E[i*width+c] == h {
			i--
		} else {
			j--
		}
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

// negInf is gappedExtend's −∞: low enough that no path through it wins,
// high enough that subtracting gap penalties cannot overflow.
const negInf = math.MinInt32 / 4

// offSubject resets band cells that lie off the subject: H = 0, E = −∞.
func offSubject(h, e []int) {
	clear(h)
	for c := range e {
		e[c] = negInf
	}
}

// score62 is bio.Score62 tabulated by byte pair, for gappedExtend's
// inner loop.
var score62 [256][256]int8

func init() {
	for a := range score62 {
		for b := range score62[a] {
			score62[a][b] = int8(bio.Score62(byte(a), byte(b)))
		}
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
// the paper's Azure study. Its i-th result is the hits of queries[i], so
// two queries that share an ID keep their own hits.
func (db *Database) SearchAll(queries []*fasta.Record, opt Options) [][]Hit {
	opt = opt.withDefaults()
	results := make([][]Hit, len(queries))
	var wg sync.WaitGroup
	work := make(chan int)
	for t := 0; t < opt.Threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = db.Search(queries[i], opt)
			}
		}()
	}
	for i := range queries {
		work <- i
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
	var b strings.Builder
	for _, hits := range db.SearchAll(queries, opt) {
		for _, h := range hits {
			fmt.Fprintf(&b, "%s\t%s\t%.1f\t%d\t%.1f\t%.2g\n",
				h.QueryID, h.SubjectID, 100*h.Identity(), h.AlignLen, h.BitScore, h.EValue)
		}
	}
	return []byte(b.String()), nil
}
