package blast

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bio"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func TestEncodeWord(t *testing.T) {
	key, ok := encodeWord([]byte("AAA"), 3)
	if !ok || key != 0 {
		t.Errorf("AAA = %d,%v; want 0,true", key, ok)
	}
	key, ok = encodeWord([]byte("AAR"), 3)
	if !ok || key != 1 {
		t.Errorf("AAR = %d,%v; want 1,true", key, ok)
	}
	if _, ok := encodeWord([]byte("AX!"), 3); ok {
		t.Error("invalid residues should fail")
	}
}

func TestNeighborhoodContainsSelfForHighThreshold(t *testing.T) {
	// The word WWW scores 33 against itself; with threshold 33 the
	// neighborhood must contain exactly the word itself.
	out := neighborhood([]byte("WWW"), 3, 33, nil)
	if len(out) != 1 {
		t.Fatalf("neighborhood size = %d, want 1", len(out))
	}
	self, _ := encodeWord([]byte("WWW"), 3)
	if out[0] != self {
		t.Errorf("neighborhood = %v, want [%d]", out, self)
	}
}

func TestNeighborhoodGrowsWithLowerThreshold(t *testing.T) {
	hi := neighborhood([]byte("ACD"), 3, 13, nil)
	lo := neighborhood([]byte("ACD"), 3, 9, nil)
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
	seq := map[string]int{}
	for _, q := range queries {
		seq[q.ID] = len(db.Search(q, Options{}))
	}
	par := db.SearchAll(queries, Options{Threads: 4})
	if len(par) != len(queries) {
		t.Fatalf("SearchAll returned %d entries, want %d", len(par), len(queries))
	}
	for id, hits := range par {
		if len(hits) != seq[id] {
			t.Errorf("query %s: parallel %d hits vs sequential %d", id, len(hits), seq[id])
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

func TestNewDatabaseWordSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("word size 9 should panic")
		}
	}()
	NewDatabaseWordSize(nil, 9)
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
