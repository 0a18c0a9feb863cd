package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// scanReader is the bufio.Scanner parser ParseBytes replaced, kept as
// the differential oracle (FuzzParseBytes): the same line rules, read
// through a scanner whose lines are capped at 16 MB.
type scanReader struct {
	s       *bufio.Scanner
	pending string // next header line, already consumed from the scanner
	err     error
}

func newScanReader(r io.Reader) *scanReader {
	s := bufio.NewScanner(r)
	s.Buffer(nil, 16*1024*1024)
	return &scanReader{s: s}
}

// Next returns the next record, or io.EOF when the input is exhausted.
func (r *scanReader) Next() (*Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	header := r.pending
	r.pending = ""
	for header == "" {
		if !r.s.Scan() {
			if err := r.s.Err(); err != nil {
				r.err = err
			} else {
				r.err = io.EOF
			}
			return nil, r.err
		}
		line := strings.TrimSpace(r.s.Text())
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, ">") {
			r.err = fmt.Errorf("%w: %q", ErrNoHeader, line)
			return nil, r.err
		}
		header = line
	}
	rec := new(Record)
	parseHeader(rec, header[1:])
	var seq bytes.Buffer
	for r.s.Scan() {
		line := strings.TrimSpace(r.s.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ">") {
			r.pending = line
			break
		}
		seq.WriteString(line)
	}
	if err := r.s.Err(); err != nil {
		r.err = err
		return nil, err
	}
	rec.Seq = seq.Bytes()
	return rec, nil
}

// scanAll parses every record from r with the oracle.
func scanAll(r io.Reader) ([]*Record, error) {
	fr := newScanReader(r)
	var recs []*Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

func TestReadSingleRecord(t *testing.T) {
	in := ">seq1 a test sequence\nACGT\nACGT\n"
	recs, err := ParseBytes([]byte(in))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != "seq1" {
		t.Errorf("ID = %q, want seq1", r.ID)
	}
	if r.Description != "a test sequence" {
		t.Errorf("Description = %q", r.Description)
	}
	if string(r.Seq) != "ACGTACGT" {
		t.Errorf("Seq = %q, want ACGTACGT", r.Seq)
	}
}

func TestReadMultipleRecords(t *testing.T) {
	in := ">a\nAC\n>b desc here\nGT\nTT\n\n>c\nAAAA"
	recs, err := ParseBytes([]byte(in))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	want := []struct{ id, seq string }{{"a", "AC"}, {"b", "GTTT"}, {"c", "AAAA"}}
	for i, w := range want {
		if recs[i].ID != w.id || string(recs[i].Seq) != w.seq {
			t.Errorf("rec %d = (%q,%q), want (%q,%q)", i, recs[i].ID, recs[i].Seq, w.id, w.seq)
		}
	}
}

func TestReadEmptyInput(t *testing.T) {
	recs, err := ParseBytes([]byte(""))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records, want 0", len(recs))
	}
}

func TestReadBlankLinesOnly(t *testing.T) {
	recs, err := ParseBytes([]byte("\n\n  \n"))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records, want 0", len(recs))
	}
}

func TestSequenceBeforeHeaderIsError(t *testing.T) {
	_, err := ParseBytes([]byte("ACGT\n>a\nAC\n"))
	if err == nil {
		t.Fatal("expected error for sequence before header")
	}
}

func TestEmptySequenceRecord(t *testing.T) {
	recs, err := ParseBytes([]byte(">empty\n>next\nAC\n"))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Len() != 0 {
		t.Errorf("first record len = %d, want 0", recs[0].Len())
	}
	if string(recs[1].Seq) != "AC" {
		t.Errorf("second record seq = %q", recs[1].Seq)
	}
}

func TestReaderNextEOF(t *testing.T) {
	r := newScanReader(strings.NewReader(">a\nAC\n"))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("second Next err = %v, want io.EOF", err)
	}
	// Subsequent calls keep returning EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("third Next err = %v, want io.EOF", err)
	}
}

func TestWriterWrapping(t *testing.T) {
	seq := strings.Repeat("ACGTACGTAC", 15) // 150 bases: two full lines and a short one
	doc, err := MarshalRecords([]*Record{{ID: "x", Seq: []byte(seq)}})
	if err != nil {
		t.Fatal(err)
	}
	want := ">x\n" + seq[:70] + "\n" + seq[70:140] + "\n" + seq[140:] + "\n"
	if string(doc) != want {
		t.Errorf("output = %q, want %q", doc, want)
	}
}

func TestWriterUnwrapped(t *testing.T) {
	doc, err := MarshalRecords([]*Record{{ID: "x", Description: "d", Seq: []byte("ACGT")}})
	if err != nil {
		t.Fatal(err)
	}
	want := ">x d\nACGT\n"
	if string(doc) != want {
		t.Errorf("output = %q, want %q", doc, want)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	recs := []*Record{
		{ID: "r1", Description: "first read", Seq: []byte("ACGTTGCA")},
		{ID: "r2", Seq: []byte("GGGG")},
	}
	doc, err := MarshalRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].ID != recs[i].ID || back[i].Description != recs[i].Description ||
			!bytes.Equal(back[i].Seq, recs[i].Seq) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestCountRecords(t *testing.T) {
	doc := []byte(">a\nAC\n>b\nGT\n>c\nTT\n")
	n, err := CountRecords(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("CountRecords = %d, want 3", n)
	}
}

// Property: Marshal → Parse is the identity on well-formed records,
// whether a sequence fills no line, part of one, or several.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nRecs uint8) bool {
		n := int(nRecs%8) + 1
		recs := make([]*Record, n)
		for i := range recs {
			seq := make([]byte, rng.Intn(200))
			for j := range seq {
				seq[j] = "ACGT"[rng.Intn(4)]
			}
			recs[i] = &Record{ID: "id" + string(rune('a'+i)), Seq: seq}
		}
		doc, err := MarshalRecords(recs)
		if err != nil {
			return false
		}
		back, err := ParseBytes(doc)
		if err != nil || len(back) != n {
			return false
		}
		for i := range recs {
			if back[i].ID != recs[i].ID || !bytes.Equal(back[i].Seq, recs[i].Seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ParseBytes reads lines in place, so a sequence line has no length
// limit: lines past bufio's 4 KB and 64 KB buffer steps, and one past the
// 16 MB cap of the scanner it replaced (an unwrapped chromosome), must
// all parse.
func TestLongSequenceLine(t *testing.T) {
	for _, n := range []int{5 << 10, 100 << 10, 400000, 17 << 20} {
		long := strings.Repeat("ACGT", n/4)
		recs, err := ParseBytes([]byte(">big\n" + long + "\n>next\nAC\n"))
		if err != nil {
			t.Fatalf("ParseBytes(%d-byte line): %v", n, err)
		}
		if len(recs) != 2 || string(recs[0].Seq) != long || string(recs[1].Seq) != "AC" {
			t.Fatalf("%d-byte line: got %d records, first len %d", n, len(recs), recs[0].Len())
		}
	}
}

// Parsing a small document costs about the document: its record and
// pointer, its header string and its sequence, and no scanner buffer (a
// 64 KB one per parse was once 59% of all bytes allocated on the
// small-task benchmark workload, and bufio's 4 KB default later 16.5%).
func TestSmallParseAllocatesLittle(t *testing.T) {
	doc := []byte(">read0 a 200-byte document\n" + strings.Repeat("ACGT", 43) + "\n")
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if recs, err := ParseBytes(doc); err != nil || len(recs) != 1 {
			t.Fatalf("ParseBytes: %d records, %v", len(recs), err)
		}
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / runs; perParse >= 1<<10 {
		t.Errorf("parsing a %d-byte document allocates %d bytes, want < 1 KB", len(doc), perParse)
	}
}

// A record's sequence is a window of one slab of all bases, and its
// capacity ends where the record does: appending to it moves it to an
// array of its own and leaves the next record's bases as they were.
func TestAppendToSeqLeavesNextRecord(t *testing.T) {
	recs, err := ParseBytes([]byte(">a\nAC\nGT\n>b\nTTTT\n>c\n>d\nGG\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, want := range []string{"ACGT", "TTTT", "", "GG"} {
		if got := recs[i].Seq; string(got) != want || cap(got) != len(got) {
			t.Errorf("record %d: Seq %q with capacity %d, want %q with capacity %d", i, got, cap(got), want, len(want))
		}
	}
	recs[0].Seq = append(recs[0].Seq, "CCCC"...)
	recs[2].Seq = append(recs[2].Seq, 'A')
	if string(recs[0].Seq) != "ACGTCCCC" || string(recs[1].Seq) != "TTTT" || string(recs[3].Seq) != "GG" {
		t.Errorf("after appends: %q %q %q %q", recs[0].Seq, recs[1].Seq, recs[2].Seq, recs[3].Seq)
	}
}

// Parsing costs four allocations however many records a document has:
// the records, their pointers, one string of headers and one slab of
// bases. It was three a record (the record, its header string and its
// sequence) plus the growing pointer slice.
func TestParseAllocationsPerDocument(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&doc, ">read%d pos=%d\n%s\n%s\n", i, 17*i, strings.Repeat("ACGT", 17), strings.Repeat("TGCA", 3))
	}
	for _, d := range [][]byte{[]byte(doc.String()), []byte(">read0\nACGT\n")} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ParseBytes(d); err != nil {
				t.Fatal(err)
			}
		})
		if n, _ := CountRecords(d); allocs > 4 {
			t.Errorf("parsing %d records: %.0f allocations, want ≤ 4", n, allocs)
		}
	}
	blank := []byte("\n\n")
	if allocs := testing.AllocsPerRun(50, func() { ParseBytes(blank) }); allocs != 0 {
		t.Errorf("parsing a blank document: %.0f allocations, want 0", allocs)
	}
}

// Rendering a small record set costs about the document: the bytes go
// straight into the returned buffer, with no 4 KB bufio.Writer staged
// per call.
func TestSmallMarshalAllocatesLittle(t *testing.T) {
	recs := []*Record{{ID: "read0", Description: "a 200-byte record set", Seq: []byte(strings.Repeat("ACGT", 43))}}
	want := ">read0 a 200-byte record set\n" + strings.Repeat("ACGT", 17) + "AC\n" +
		"GT" + strings.Repeat("ACGT", 17) + "\n" + strings.Repeat("ACGT", 8) + "\n"
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if doc, err := MarshalRecords(recs); err != nil || string(doc) != want {
			t.Fatalf("MarshalRecords = %q, %v; want %q", doc, err, want)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 1<<10 {
		t.Errorf("marshalling a %d-byte document allocates %d bytes, want < 1 KB", len(want), perCall)
	}
}

// FuzzParseBytes: the in-place parser and the scanner it replaced must
// agree on every document — records, IDs, descriptions, sequences and
// error text — and CountRecords on the record count.
func FuzzParseBytes(f *testing.F) {
	for _, doc := range []string{
		// The other tests' inputs.
		">seq1 a test sequence\nACGT\nACGT\n", ">a\nAC\n>b desc here\nGT\nTT\n\n>c\nAAAA",
		"", "\n\n  \n", "ACGT\n>a\nAC\n", ">empty\n>next\nAC\n", ">a\nAC\n",
		// CR/LF line ends, and a lone CR inside a line.
		">r1 first read\r\nACGT\r\nTTGCA\r\n>r2\r\nGG\r\n", ">a\nAC\rGT\n",
		// Blank lines, and white space around and inside lines.
		"\n\n>x  spaced   desc \n\n  AC GT  \n\n\t\n>y\n", "  >indented\nAC\n  >next\n",
		// Header-only documents.
		">only\n", ">", "> \n>\t\n",
		// Data before the first header.
		"AC\n", "\n  GT\n>a\n",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, gotErr := ParseBytes(doc)
		want, wantErr := scanAll(bytes.NewReader(doc))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseBytes error %v, scanner %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("ParseBytes: %d records, scanner %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Description != w.Description || !bytes.Equal(g.Seq, w.Seq) {
				t.Fatalf("record %d: ParseBytes %+q, scanner %+q", i, *g, *w)
			}
		}
		n, err := CountRecords(doc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || wantErr == nil && n != len(want) {
			t.Fatalf("CountRecords = %d, %v; scanner %d records, %v", n, err, len(want), wantErr)
		}
	})
}
