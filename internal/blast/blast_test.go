package blast

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bio"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func TestEncodeWord(t *testing.T) {
	key, ok := encodeWord([]byte("AAA"))
	if !ok || key != 0 {
		t.Errorf("AAA = %d,%v; want 0,true", key, ok)
	}
	key, ok = encodeWord([]byte("AAR"))
	if !ok || key != 1 {
		t.Errorf("AAR = %d,%v; want 1,true", key, ok)
	}
	if _, ok := encodeWord([]byte("AX!")); ok {
		t.Error("invalid residues should fail")
	}
}

func TestNeighborhoodContainsSelfForHighThreshold(t *testing.T) {
	// The word WWW scores 33 against itself; with threshold 33 the
	// neighborhood must contain exactly the word itself.
	out := neighborhood([]byte("WWW"), 33, nil)
	if len(out) != 1 {
		t.Fatalf("neighborhood size = %d, want 1", len(out))
	}
	self, _ := encodeWord([]byte("WWW"))
	if out[0] != self {
		t.Errorf("neighborhood = %v, want [%d]", out, self)
	}
}

func TestNeighborhoodGrowsWithLowerThreshold(t *testing.T) {
	hi := neighborhood([]byte("ACD"), 13, nil)
	lo := neighborhood([]byte("ACD"), 9, nil)
	if len(lo) <= len(hi) {
		t.Errorf("threshold 9 gives %d words, threshold 13 gives %d; expected growth", len(lo), len(hi))
	}
	// Every neighbor must genuinely meet its threshold.
	kc := func(key int32) []byte {
		w := make([]byte, 3)
		for i := 2; i >= 0; i-- {
			w[i] = bio.ProteinAlphabet[key%20]
			key /= 20
		}
		return w
	}
	for _, key := range lo {
		word := kc(key)
		score := 0
		for i := 0; i < 3; i++ {
			score += bio.Score62('A'+0, word[i]) // placeholder, recomputed below
		}
		score = bio.Score62('A', word[0]) + bio.Score62('C', word[1]) + bio.Score62('D', word[2])
		if score < 9 {
			t.Errorf("neighbor %s scores %d < 9", word, score)
		}
	}
}

func TestSelfHitIsFound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := workload.Protein(rng, 120)
	db := NewDatabase([]*fasta.Record{{ID: "subject", Seq: seq}})
	hits := db.Search(&fasta.Record{ID: "q", Seq: seq}, Options{})
	if len(hits) == 0 {
		t.Fatal("no self hit found")
	}
	h := hits[0]
	if h.SubjectID != "subject" {
		t.Errorf("hit subject = %s", h.SubjectID)
	}
	if h.Identity() < 0.95 {
		t.Errorf("self-hit identity = %.3f, want ≈ 1", h.Identity())
	}
	if h.EValue > 1e-10 {
		t.Errorf("self-hit evalue = %g, want tiny", h.EValue)
	}
	if got := h.QEnd - h.QStart; got < 100 {
		t.Errorf("alignment covers %d residues, want most of 120", got)
	}
}

func TestEmbeddedMotifIsFound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	motif := workload.Protein(rng, 40)
	// Subject: random flanks around the motif.
	subject := append(append(workload.Protein(rng, 150), motif...), workload.Protein(rng, 150)...)
	// Query: motif with 10% mutations inside a different random context.
	mut := append([]byte{}, motif...)
	for i := range mut {
		if rng.Float64() < 0.10 {
			mut[i] = bio.ProteinAlphabet[rng.Intn(20)]
		}
	}
	query := append(append(workload.Protein(rng, 20), mut...), workload.Protein(rng, 20)...)
	db := NewDatabase([]*fasta.Record{
		{ID: "decoy1", Seq: workload.Protein(rng, 300)},
		{ID: "target", Seq: subject},
		{ID: "decoy2", Seq: workload.Protein(rng, 300)},
	})
	hits := db.Search(&fasta.Record{ID: "q", Seq: query}, Options{MaxEValue: 1e-3})
	if len(hits) == 0 {
		t.Fatal("motif hit not found")
	}
	if hits[0].SubjectID != "target" {
		t.Errorf("best hit = %s, want target", hits[0].SubjectID)
	}
	if hits[0].SStart > 160 || hits[0].SEnd < 180 {
		t.Errorf("hit range [%d,%d) does not cover motif at [150,190)", hits[0].SStart, hits[0].SEnd)
	}
}

func TestRandomQueriesRarelyHitStringently(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, _ := workload.ProteinDatabase(4, 40, 200, 300, 0, 0)
	d := NewDatabase(db)
	falsePositives := 0
	for i := 0; i < 10; i++ {
		q := workload.Protein(rng, 60)
		hits := d.Search(&fasta.Record{ID: "q", Seq: q}, Options{MaxEValue: 1e-6})
		falsePositives += len(hits)
	}
	if falsePositives > 1 {
		t.Errorf("%d hits at E ≤ 1e-6 for random queries; expected ≈ 0", falsePositives)
	}
}

func TestEValueMonotonicInScore(t *testing.T) {
	f := func(s1, s2 uint8) bool {
		a, b := int(s1), int(s2)
		if a == b {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return evalue(b, 100, 100000) <= evalue(a, 100, 100000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitScorePositive(t *testing.T) {
	if bitScore(30) <= 0 {
		t.Errorf("bitScore(30) = %v", bitScore(30))
	}
	if bitScore(60) <= bitScore(30) {
		t.Error("bit score must grow with raw score")
	}
}

func TestUngappedExtendPerfectMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := workload.Protein(rng, 100)
	q := append([]byte{}, s[20:80]...)
	// Word hit at query pos 10 / subject pos 30.
	score, qs, qe := ungappedExtend(q, s, 10, 30, 3, 7)
	if qs != 0 || qe != len(q) {
		t.Errorf("extent [%d,%d), want [0,%d)", qs, qe, len(q))
	}
	selfScore := 0
	for _, c := range q {
		selfScore += bio.Score62(c, c)
	}
	if score != selfScore {
		t.Errorf("score = %d, want %d", score, selfScore)
	}
}

func TestGappedExtendHandlesInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	left := workload.Protein(rng, 40)
	right := workload.Protein(rng, 40)
	subject := append(append([]byte{}, left...), right...)
	// Query has a 2-residue insertion between the halves.
	query := append(append(append([]byte{}, left...), 'G', 'G'), right...)
	db := NewDatabase([]*fasta.Record{{ID: "s", Seq: subject}})
	hits := db.Search(&fasta.Record{ID: "q", Seq: query}, Options{MaxEValue: 1e-3})
	if len(hits) == 0 {
		t.Fatal("no hit across insertion")
	}
	h := hits[0]
	// The alignment should span both halves despite the gap.
	if h.QEnd-h.QStart < 60 {
		t.Errorf("alignment spans %d residues, want ≥ 60 (gap not bridged)", h.QEnd-h.QStart)
	}
}

func TestSearchAllMatchesSequentialSearch(t *testing.T) {
	dbRecs, motifs := workload.ProteinDatabase(7, 30, 150, 250, 3, 25)
	qDoc, err := workload.BlastQueryFile(8, 12, motifs, 60)
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := fasta.ParseBytes(qDoc)
	db := NewDatabase(dbRecs)
	par := db.SearchAll(queries, Options{Threads: 4})
	if len(par) != len(queries) {
		t.Fatalf("SearchAll returned %d entries, want %d", len(par), len(queries))
	}
	for i, q := range queries {
		if seq := len(db.Search(q, Options{})); len(par[i]) != seq {
			t.Errorf("query %s: parallel %d hits vs sequential %d", q.ID, len(par[i]), seq)
		}
	}
}

// Two different queries under one ID each keep their own hits: Run's
// output is the two single-query outputs in file order, every time.
func TestRunSharedQueryID(t *testing.T) {
	dbRecs, motifs := workload.ProteinDatabase(7, 30, 150, 250, 3, 25)
	db := NewDatabase(dbRecs)
	qDoc, err := workload.BlastQueryFile(8, 2, motifs, 60)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := fasta.ParseBytes(qDoc)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	docs := make([][]byte, len(queries))
	for i, q := range queries {
		docs[i] = []byte(">q\n" + string(q.Seq) + "\n")
		out, err := Run(docs[i], db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("query %d alone has no hits", i)
		}
		want = append(want, out...)
	}
	if bytes.Equal(docs[0], docs[1]) {
		t.Fatal("the two queries are the same sequence")
	}
	both := append(bytes.Clone(docs[0]), docs[1]...)
	for run := range 20 {
		got, err := Run(both, db, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: %d bytes, want the two single-query outputs (%d bytes):\n%s", run, len(got), len(want), got)
		}
	}
}

func TestRunTabularOutput(t *testing.T) {
	dbRecs, motifs := workload.ProteinDatabase(9, 20, 150, 250, 2, 25)
	db := NewDatabase(dbRecs)
	qDoc, err := workload.BlastQueryFile(10, 6, motifs, 60)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(qDoc, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no output lines")
	}
	for _, line := range lines {
		if fields := strings.Split(line, "\t"); len(fields) != 6 {
			t.Errorf("line %q has %d fields, want 6", line, len(fields))
		}
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	db := NewDatabase(nil)
	if _, err := Run([]byte("garbage\n"), db, Options{}); err == nil {
		t.Error("garbage queries should error")
	}
}

// The database travels to workers as a FASTA document (internal/apps):
// a database rebuilt from the document must search like the original.
func TestDatabaseSerializationRoundTrip(t *testing.T) {
	dbRecs, motifs := workload.ProteinDatabase(11, 25, 100, 200, 2, 20)
	db := NewDatabase(dbRecs)
	doc, err := fasta.MarshalRecords(dbRecs)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := fasta.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	back := NewDatabase(parsed)
	if len(back.Seqs) != len(db.Seqs) || back.TotalLen != db.TotalLen {
		t.Fatalf("restored %d seqs / %d len, want %d / %d",
			len(back.Seqs), back.TotalLen, len(db.Seqs), db.TotalLen)
	}
	// Searches must behave identically.
	qDoc, _ := workload.BlastQueryFile(12, 5, motifs, 60)
	queries, _ := fasta.ParseBytes(qDoc)
	for _, q := range queries {
		a := db.Search(q, Options{})
		b := back.Search(q, Options{})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %s: %d hits vs %d after round trip", q.ID, len(a), len(b))
		}
	}
}

func TestHitIdentityZeroAlignLen(t *testing.T) {
	var h Hit
	if h.Identity() != 0 {
		t.Error("zero-length alignment should have identity 0")
	}
}

func TestShortQueryNoCrash(t *testing.T) {
	db := NewDatabase([]*fasta.Record{{ID: "s", Seq: []byte("ACDEFGHIKLMNPQRSTVWY")}})
	hits := db.Search(&fasta.Record{ID: "q", Seq: []byte("AC")}, Options{})
	if hits != nil {
		t.Errorf("query shorter than word size should yield nil, got %v", hits)
	}
}

func TestSearchStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	seq := workload.Protein(rng, 200)
	db := NewDatabase([]*fasta.Record{{ID: "s", Seq: seq}})
	_, stats := db.SearchWithStats(&fasta.Record{ID: "q", Seq: seq[:100]}, Options{})
	if stats.SeedHits == 0 {
		t.Error("self search should produce seed hits")
	}
	if stats.GappedExts == 0 {
		t.Error("self search should trigger gapped extension")
	}
	if stats.HSPs == 0 {
		t.Error("self search should record an HSP")
	}
}

func BenchmarkSearch100Queries(b *testing.B) {
	dbRecs, motifs := workload.ProteinDatabase(15, 100, 200, 400, 5, 30)
	db := NewDatabase(dbRecs)
	qDoc, _ := workload.BlastQueryFile(16, 100, motifs, 80)
	queries, _ := fasta.ParseBytes(qDoc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.SearchAll(queries, Options{Threads: 4})
	}
}

// kernelInputs builds bench/workloads' mixed_tenants BLAST shape: n files
// of 2 queries × 150 aa against 100 sequences of 200–300 aa.
func kernelInputs(tb testing.TB, n int) (*Database, [][]byte) {
	tb.Helper()
	dbRecs, motifs := workload.ProteinDatabase(1, 100, 200, 300, 6, 30)
	docs := make([][]byte, n)
	for i := range docs {
		doc, err := workload.BlastQueryFile(2+int64(i)*17, 2, motifs, 150)
		if err != nil {
			tb.Fatal(err)
		}
		docs[i] = doc
	}
	return NewDatabase(dbRecs), docs
}

// goldenCase is one line of testdata/golden.json: query file i of
// kernelInputs.
type goldenCase struct {
	File   int
	SHA256 string      // of Run's output
	Stats  SearchStats // summed over the file's queries
}

// TestGoldenRun pins Run's bytes and the search counters on a seeded
// corpus to what PR 19 produced (testdata/golden.json was recorded at
// that commit, before gappedExtend reused its matrices): a failure means
// the search changed its answers, not that the digests want re-recording.
func TestGoldenRun(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	db, docs := kernelInputs(t, len(want))
	for i, doc := range docs {
		out, err := Run(doc, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := goldenCase{File: i, SHA256: fmt.Sprintf("%x", sha256.Sum256(out))}
		queries, err := fasta.ParseBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			_, st := db.SearchWithStats(q, Options{})
			got.Stats.SeedHits += st.SeedHits
			got.Stats.TwoHitTriggers += st.TwoHitTriggers
			got.Stats.UngappedExts += st.UngappedExts
			got.Stats.GappedExts += st.GappedExts
			got.Stats.HSPs += st.HSPs
		}
		if got != want[i] {
			t.Errorf("query file %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

var kernelSink []byte

// BenchmarkKernelBlast times Run on one mixed_tenants query file per op.
func BenchmarkKernelBlast(b *testing.B) {
	db, docs := kernelInputs(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Run(docs[i%len(docs)], db, Options{})
		if err != nil {
			b.Fatal(err)
		}
		kernelSink = out
	}
}

// mapIndex is the word index as it stood before the dense rewrite: a Go map from
// word key to its occurrences, by subject then position.
func mapIndex(db *Database) map[int32][]loc {
	index := make(map[int32][]loc)
	for si, rec := range db.Seqs {
		seq := rec.Seq
		for p := 0; p+wordSize <= len(seq); p++ {
			key, ok := encodeWord(seq[p:])
			if !ok {
				continue
			}
			index[key] = append(index[key], loc{seq: int32(si), pos: int32(p)})
		}
	}
	return index
}

// searchMap is SearchWithStats as it stood before the dense rewrite, on Go maps for
// the word index and the per-diagonal two-hit state, with the recursive
// neighborhood and the range-checked banded extension: the reference the
// dense kernel must reproduce exactly, hit for hit and counter for counter.
func searchMap(db *Database, index map[int32][]loc, query *fasta.Record, opt Options) ([]Hit, SearchStats) {
	opt = opt.withDefaults()
	var stats SearchStats
	q := query.Seq
	w := wordSize
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
	var gapped []int

	for qp := 0; qp+w <= len(q); qp++ {
		neigh = neighborhoodRec(q[qp:qp+w], w, opt.Threshold, neigh[:0])
		for _, key := range neigh {
			for _, l := range index[key] {
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
				hit := gappedExtendAt(q, subj, qs, qs+int(dk.diag), qe-qs, opt, &gapped)
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

// neighborhoodRec is neighborhood by depth-first enumeration with
// branch-and-bound pruning, for any word length w.
func neighborhoodRec(qword []byte, w, threshold int, out []int32) []int32 {
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

// gappedExtendAt is gappedExtend over all (i, j) of the band with a range
// check on every neighbour it reads, and F stored beside H and E.
func gappedExtendAt(q, s []byte, qAnchor, sAnchor, anchorLen int, opt Options, scratch *[]int) Hit {
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
	width := 2*band + 1
	size := (n + 1) * width
	*scratch = slices.Grow((*scratch)[:0], 3*size)[:3*size]
	H := (*scratch)[:size]
	E := (*scratch)[size : 2*size]
	F := (*scratch)[2*size:]
	at := func(i, j int) int {
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

// oracleOptions are the settings the oracle comparison runs under: the
// defaults, a band narrow enough that alignments run into its edges, and
// loose cut-offs that extend and report nearly every seed pair.
var oracleOptions = []Options{
	{},
	{Band: 1, MaxEValue: 1e6},
	{UngappedCut: 1, Band: 40, MaxEValue: 1e6},
}

// checkAgainstOracle fails unless SearchWithStats and searchMap agree on
// every hit, their order, and every counter, for each query under each of
// oracleOptions.
func checkAgainstOracle(t *testing.T, name string, subjects [][]byte, queries ...[]byte) {
	t.Helper()
	recs := make([]*fasta.Record, len(subjects))
	for i, s := range subjects {
		recs[i] = &fasta.Record{ID: fmt.Sprintf("s%d", i), Seq: s}
	}
	db := NewDatabase(recs)
	index := mapIndex(db)
	for qi, seq := range queries {
		query := &fasta.Record{ID: fmt.Sprintf("q%d", qi), Seq: seq}
		for _, opt := range oracleOptions {
			got, gotStats := db.SearchWithStats(query, opt)
			want, wantStats := searchMap(db, index, query, opt)
			if gotStats != wantStats {
				t.Errorf("%s, query %d, %+v: stats %+v, oracle %+v", name, qi, opt, gotStats, wantStats)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, query %d, %+v:\n got %+v\nwant %+v", name, qi, opt, got, want)
			}
		}
	}
}

// searchEdgeCases are hand-made (subjects, queries) pairs that reach what
// the seeded corpus does not: windows clipped at both ends of a subject,
// residues outside the alphabet, and searches with nothing to find.
func searchEdgeCases() map[string][2][][]byte {
	rng := rand.New(rand.NewSource(21))
	long := workload.Protein(rng, 400)
	short := [][]byte{long[10:60], long[200:230], workload.Protein(rng, 40)}
	odd := bytes.Clone(long[100:220])
	odd[7], odd[30], odd[31], odd[90] = 'X', '*', 'x', 'B'
	for i := 40; i < 70; i++ {
		odd[i] += 'a' - 'A'
	}
	return map[string][2][][]byte{
		"query longer than every subject": {short, {long}},
		"seeds at subject position 0 and at the last word": {
			{long[:50], long[150:153], long[300:320]},
			{long[:50], long[:20], long[30:50], long[300:320], long[145:158]},
		},
		"X, * and lower case":         {{odd, long[90:250]}, {bytes.ToLower(long[95:215]), odd[20:100], long[100:220]}},
		"query shorter than the word": {short, {long[:2], long[:1], {}}},
		"empty database":              {nil, {long[:80]}},
		"empty and one-word subjects": {{{}, long[5:7], long[5:8], long[:60]}, {long[:60]}},
		"repeats on many diagonals":   {{bytes.Repeat([]byte("WCWHM"), 30)}, {bytes.Repeat([]byte("WCWHM"), 12), bytes.Repeat([]byte("WCW"), 20)}},
	}
}

func TestSearchMatchesOracle(t *testing.T) {
	for name, c := range searchEdgeCases() {
		checkAgainstOracle(t, name, c[0], c[1]...)
	}
	db, docs := kernelInputs(t, 4)
	subjects := make([][]byte, len(db.Seqs))
	for i, rec := range db.Seqs {
		subjects[i] = rec.Seq
	}
	for i, doc := range docs {
		queries, err := fasta.ParseBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		var seqs [][]byte
		for _, q := range queries {
			seqs = append(seqs, q.Seq)
		}
		checkAgainstOracle(t, fmt.Sprintf("golden corpus file %d", i), subjects, seqs...)
	}
}

// fuzzResidues is what FuzzSearch maps arbitrary bytes onto: the 20
// amino acids, two lower-case ones, and two residues outside the alphabet.
const fuzzResidues = bio.ProteinAlphabet + "acX*"

// FuzzSearch: arbitrary bytes become a query (the first line) and a
// database (the rest) over fuzzResidues, and the dense kernel must agree
// with the map oracle exactly and never panic.
func FuzzSearch(f *testing.F) {
	for _, c := range searchEdgeCases() {
		for _, q := range c[1] {
			f.Add(bytes.Join(append([][]byte{q}, c[0]...), []byte{'\n'}))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var seqs [][]byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			seq := make([]byte, len(line))
			for i, c := range line {
				if strings.IndexByte(fuzzResidues, c) >= 0 {
					seq[i] = c
				} else {
					seq[i] = fuzzResidues[int(c)%len(fuzzResidues)]
				}
			}
			seqs = append(seqs, seq)
		}
		checkAgainstOracle(t, "fuzz", seqs[1:], seqs[0])
	})
}
