package fasta

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadSingleRecord(t *testing.T) {
	in := ">seq1 a test sequence\nACGT\nACGT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
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
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
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
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records, want 0", len(recs))
	}
}

func TestReadBlankLinesOnly(t *testing.T) {
	recs, err := ReadAll(strings.NewReader("\n\n  \n"))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records, want 0", len(recs))
	}
}

func TestSequenceBeforeHeaderIsError(t *testing.T) {
	_, err := ReadAll(strings.NewReader("ACGT\n>a\nAC\n"))
	if err == nil {
		t.Fatal("expected error for sequence before header")
	}
}

func TestEmptySequenceRecord(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(">empty\n>next\nAC\n"))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
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
	r := NewReader(strings.NewReader(">a\nAC\n"))
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

// The scanner starts from bufio's 4 KB default and grows: single lines
// past that size, past 64 KB, and well beyond must all still parse.
func TestLongSequenceLine(t *testing.T) {
	for _, n := range []int{5 << 10, 100 << 10, 400000} {
		long := strings.Repeat("ACGT", n/4)
		recs, err := ReadAll(strings.NewReader(">big\n" + long + "\n>next\nAC\n"))
		if err != nil {
			t.Fatalf("ReadAll(%d-byte line): %v", n, err)
		}
		if len(recs) != 2 || string(recs[0].Seq) != long || string(recs[1].Seq) != "AC" {
			t.Fatalf("%d-byte line: got %d records, first len %d", n, len(recs), recs[0].Len())
		}
	}
}

// Parsing a small document must not pay for a large fixed scanner
// buffer: a 64 KB buffer per parse was 59% of all bytes allocated on
// the small-task benchmark workload.
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
	if perParse := (after.TotalAlloc - before.TotalAlloc) / runs; perParse >= 8<<10 {
		t.Errorf("parsing a %d-byte document allocates %d bytes, want < 8 KB", len(doc), perParse)
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
