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
//
// A task's largest cost is the banded gapped extension, one band row at a
// time. Where the CPU and OS support AVX2 (internal/cpuid), and for a band
// of at most 15 and gap costs with 0 ≤ extend ≤ open ≤ 2^20 — every
// setting the programs use: band 12, gaps 11/1 — an assembly kernel
// computes a row's 32 lanes, eight to a register (band_amd64.s).
// Elsewhere, and for any other band or gap costs, the portable Go row
// (bandRow) does. Both fill the same matrix cell for cell, so the hits and
// the output bytes do not depend on the machine. The vector row takes the
// in-row gap term F as a prefix maximum instead of a recurrence along the
// row. Following Farrar's SIMD Smith–Waterman (Bioinformatics 23(2),
// 2007), that gives the same integers whenever opening a gap costs at
// least as much as extending one. FuzzBandRow holds the two rows to the
// same matrices and hits, and TestGoldenRunPortableRow keeps the portable
// row golden on machines that run the vector one.
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
	var gapped []int32 // gappedExtend's matrix, grown once and shared by every extension of this query

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
	seed := 0
	for i := 0; i < w; i++ {
		seed += bio.Score62(q[qp+i], s[sp+i])
	}
	bestRight, bestRightLen, run := 0, 0, 0
	for i := w; qp+i < len(q) && sp+i < len(s); i++ {
		run += bio.Score62(q[qp+i], s[sp+i])
		if run > bestRight {
			bestRight, bestRightLen = run, i-w+1
		}
		if bestRight-run > xdrop {
			break
		}
	}
	bestLeft, bestLeftLen := 0, 0
	run = 0
	for i := 1; qp-i >= 0 && sp-i >= 0; i++ {
		run += bio.Score62(q[qp-i], s[sp-i])
		if run > bestLeft {
			bestLeft, bestLeftLen = run, i
		}
		if bestLeft-run > xdrop {
			break
		}
	}
	return seed + bestRight + bestLeft, qp - bestLeftLen, qp + w + bestRightLen
}

// The banded matrix: a row holds stride H lanes, then stride E lanes,
// where lane c of query row i is band column c, subject column j = i +
// diag − band + c. Lane width = 2·band+1 lies right of the band and
// holds H = E = −∞; a lane off the subject holds H = 0, E = −∞; no lane
// past width is read as a cell. Cell (i-1, j-1) is then lane c of the
// row above, (i-1, j) lane c+1, and (i, j-1) lane c-1 of this row. The
// vector row computes vectorLanes lanes and reads one more of the row
// above, so its rows are vectorStride lanes, and the band it fits is
// vectorBand at most.
const (
	vectorLanes  = 32
	vectorStride = 40
	vectorBand   = (vectorLanes - 2) / 2
	vectorMaxGap = 1 << 20
)

// vectorRow is the AVX2 row kernel where band_amd64.go's init finds the
// CPU and OS support AVX2, and nil elsewhere. It computes what bandRow
// does for the row at row (the row above ends just before it) in
// vectorLanes lanes at once, reading lane c's subject residue from res[c]
// as an int32 and its score from scores, and writes every lane of the
// row. It returns the row's best H and its first lane.
var vectorRow func(row, res *int32, scores *[256]int32, cLo, cHi, width int, open, extend int32) (best int32, at int)

// vectorFits reports whether the vector row computes a band and gap
// costs exactly: the band and its sentinel lane must fit in vectorLanes,
// and its F scan is the scalar recurrence only when 0 ≤ extend ≤ open,
// both small enough that no lane wraps.
func vectorFits(band, open, extend int) bool {
	return 0 <= band && band <= vectorBand && 0 <= extend && extend <= open && open <= vectorMaxGap
}

// gappedExtend performs a banded Smith–Waterman alignment of the query
// window around the seeded region against the subject, anchored on the
// seed diagonal. The anchor is a position of q and of s, so the subject
// window is empty only when the query window is. Its score matrix lives
// in *scratch, which it grows as needed and leaves for the next call to
// overwrite. Each row is computed by vectorRow when there is one and it
// fits opt, and by bandRow otherwise; both fill lanes 0 to width alike.
func gappedExtend(q, s []byte, qAnchor, sAnchor, anchorLen int, opt Options, scratch *[]int32) Hit {
	// Align a generous window around the anchor.
	margin := opt.Band * 4
	qLo := max(0, qAnchor-margin-anchorLen)
	qHi := min(len(q), qAnchor+anchorLen+margin)
	sLo := max(0, sAnchor-margin-anchorLen)
	sHi := min(len(s), sAnchor+anchorLen+margin)
	qw := q[qLo:qHi]
	sw := s[sLo:sHi]
	diag := (sAnchor - sLo) - (qAnchor - qLo)

	// Smith-Waterman with affine gaps restricted to |j - i - diag| ≤ band,
	// in the banded matrix above. Only rows first to last reach the
	// subject; the matrix holds them after the blank row above first, its
	// row 0, which neither the best cell nor the traceback passes. The
	// vector row reads the subject window as int32 residues after the
	// matrix, vectorLanes zeros each side, so that lanes off the subject
	// load in bounds.
	n, m := len(qw), len(sw)
	band := opt.Band
	width := 2*band + 1
	first, last := max(1, 1-diag-band), min(n, m-diag+band)
	stride := max(vectorStride, width+1)
	rowLen := 2 * stride
	size := (max(0, last-first+1) + 1) * rowLen
	vector := vectorRow != nil && vectorFits(band, opt.GapOpen, opt.GapExtend)
	need := size
	if vector {
		need += m + 2*vectorLanes
	}
	*scratch = slices.Grow((*scratch)[:0], need)[:need]
	cells, res := (*scratch)[:size], (*scratch)[size:]
	if vector {
		clear(res[:vectorLanes])
		for k, c := range sw {
			res[vectorLanes+k] = int32(c)
		}
		clear(res[vectorLanes+m:])
	}
	offSubject(cells[:width], cells[stride:stride+width])
	cells[width], cells[stride+width] = negInf, negInf
	open, extend := int32(opt.GapOpen), int32(opt.GapExtend)
	var bestScore int32
	bi, bj := 0, 0
	for i := first; i <= last; i++ {
		r := i - first + 1
		row := cells[r*rowLen : (r+1)*rowLen]
		j0 := i + diag - band // subject column of band lane 0
		cLo, cHi := max(0, 1-j0), min(width-1, m-j0)
		var best int32
		var c int
		if vector {
			best, c = vectorRow(&row[0], &res[vectorLanes+j0-1], &score62[qw[i-1]], cLo, cHi, width, open, extend)
		} else {
			best, c = bandRow(row, cells[(r-1)*rowLen:r*rowLen], sw[j0-1+cLo:j0+cHi], &score62[qw[i-1]], cLo, cHi, width, open, extend)
		}
		if best > bestScore {
			bestScore, bi, bj = best, i, j0+c
		}
	}
	// Traceback from (bi,bj) to recover extents and identity; a step that
	// leaves the band, or reaches a cell holding 0, ends it.
	matches, alen := 0, 0
	i, j := bi, bj
	for i >= first && j > 0 {
		c := j - (i + diag) + band
		if c < 0 || c >= width {
			break
		}
		at := (i-first+1)*rowLen + c
		h := cells[at]
		if h == 0 {
			break
		}
		if h == cells[at-rowLen]+score62[qw[i-1]][sw[j-1]] {
			if qw[i-1] == sw[j-1] {
				matches++
			}
			alen++
			i--
			j--
			continue
		}
		alen++
		if cells[at+stride] == h {
			i--
		} else {
			j--
		}
	}
	return Hit{
		Score:    int(bestScore),
		QStart:   qLo + i,
		QEnd:     qLo + bi,
		SStart:   sLo + j,
		SEnd:     sLo + bj,
		AlignLen: alen,
		Matches:  matches,
	}
}

// bandRow is the portable row kernel and the oracle the vector row is
// tested against. It computes lanes cLo to cHi of one matrix row from the
// row above, up (lane c+1 of up is the cell above lane c, lane c the one
// diagonally up-left), and the subject residues sr under them, scored
// with the query residue's row of score62. It marks the row's other lanes
// up to width off the subject or right of the band. A row takes two
// passes: max(0, match, E), which reads only the row above, and then the
// F recurrence along the row, starting from the H left of lane cLo (−∞
// at the band's edge). It returns the row's best H and the first lane
// that holds it.
func bandRow(row, up []int32, sr []byte, scores *[256]int32, cLo, cHi, width int, open, extend int32) (best int32, at int) {
	stride := len(row) / 2
	h, e, upH, upE := row[:stride], row[stride:], up[:stride], up[stride:]
	leftH := int32(0)
	if cLo == 0 {
		leftH = negInf
	}
	offSubject(h[:cLo], e[:cLo])
	offSubject(h[cHi+1:width], e[cHi+1:width])
	h[width], e[width] = negInf, negInf
	hr := h[cLo : cHi+1]
	n := len(hr)
	er, sr := e[cLo:cLo+n], sr[:n]
	diagH, aboveH, aboveE := upH[cLo], upH[cLo+1:cLo+1+n], upE[cLo+1:cLo+1+n]
	for k := range hr {
		ek := max(aboveH[k]-open, aboveE[k]-extend)
		hr[k] = max(0, diagH+scores[sr[k]], ek)
		er[k] = ek
		diagH = aboveH[k]
	}
	best, leftF := int32(-1), int32(negInf)
	for k, hk := range hr {
		f := max(leftH-open, leftF-extend)
		hk = max(hk, f)
		hr[k] = hk
		leftH, leftF = hk, f
		if hk > best {
			best, at = hk, k
		}
	}
	return best, cLo + at
}

// negInf is gappedExtend's −∞: low enough that no path through it wins,
// high enough that subtracting gap penalties cannot overflow an int32.
const negInf = math.MinInt32 / 4

// offSubject sets lanes that lie off the subject to H = 0, E = −∞.
func offSubject(h, e []int32) {
	clear(h)
	for c := range e {
		e[c] = negInf
	}
}

// score62 is bio.Score62 tabulated by byte pair, for gappedExtend's
// rows and traceback.
var score62 [256][256]int32

func init() {
	for a := range score62 {
		for b := range score62[a] {
			score62[a][b] = int32(bio.Score62(byte(a), byte(b)))
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
