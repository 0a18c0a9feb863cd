// Package fasta reads and writes FASTA-formatted sequence data.
//
// The FASTA format stores named biological sequences: each record starts
// with a header line beginning with '>', followed by one or more sequence
// lines. This package supports multi-record files, arbitrary line widths,
// and round-trips records byte-for-byte up to line-wrapping. There is one
// parser, ParseBytes, which reads a document in memory in place and so has
// no line-length limit: an unwrapped chromosome is one line.
package fasta

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Record is a single FASTA entry: an identifier, an optional free-form
// description (the rest of the header line), and the sequence bytes.
type Record struct {
	ID          string
	Description string
	Seq         []byte
}

// Len returns the sequence length.
func (r *Record) Len() int { return len(r.Seq) }

// ErrNoHeader is returned when sequence data appears before any '>' header.
var ErrNoHeader = errors.New("fasta: sequence data before first header")

// ParseBytes parses every record from an in-memory FASTA document. It
// walks the document in place, one line at a time, so a line may be of
// any length. A first walk measures the records, so that however many
// there are the second fills four allocations: the records, their
// pointers, one string of all headers (each record's ID and Description
// are in it) and one slab of all bases. Each Seq's capacity ends where it
// does, so an append to one record never writes into the next; a record
// kept alone keeps the whole slab reachable.
func ParseBytes(b []byte) ([]*Record, error) {
	n, headers, bases, err := measure(b)
	if err != nil || n == 0 {
		return nil, err
	}
	recs, ptrs := make([]Record, n), make([]*Record, n)
	var hs strings.Builder
	hs.Grow(headers)
	slab := make([]byte, 0, bases)
	rec, lo := -1, 0
	for len(b) > 0 {
		var line []byte
		if line, b = cutLine(b); len(line) == 0 {
			continue
		}
		if line[0] == '>' {
			rec, lo = rec+1, len(slab)
			start := hs.Len()
			hs.Write(line[1:])
			// The builder only appends, so what it holds so far is
			// never written again: a header may be cut from it.
			parseHeader(&recs[rec], hs.String()[start:])
			ptrs[rec] = &recs[rec]
			continue
		}
		slab = append(slab, line...)
		recs[rec].Seq = slab[lo:len(slab):len(slab)]
	}
	return ptrs, nil
}

// measure returns a document's count of records and the bytes of their
// headers (without the '>') and of their bases, or an error when sequence
// data comes before the first header.
func measure(b []byte) (n, headers, bases int, err error) {
	for len(b) > 0 {
		var line []byte
		if line, b = cutLine(b); len(line) == 0 {
			continue
		}
		switch {
		case line[0] == '>':
			n, headers = n+1, headers+len(line)-1
		case n == 0:
			return 0, 0, 0, fmt.Errorf("%w: %q", ErrNoHeader, line)
		default:
			bases += len(line)
		}
	}
	return n, headers, bases, nil
}

// cutLine splits b after its first line and returns that line with
// surrounding white space (a CR before the LF too) trimmed.
func cutLine(b []byte) (line, rest []byte) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return bytes.TrimSpace(b[:i]), b[i+1:]
	}
	return bytes.TrimSpace(b), nil
}

// parseHeader fills rec's ID and Description from a header line without
// its '>'.
func parseHeader(rec *Record, line string) {
	id, desc, found := strings.Cut(line, " ")
	rec.ID = id
	if found {
		rec.Description = strings.TrimSpace(desc)
	}
}

// defaultWidth is the conventional FASTA sequence line width.
const defaultWidth = 70

// appendRecord appends one record's FASTA rendering to dst: the single
// definition of the output format.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, '>')
	dst = append(dst, rec.ID...)
	if rec.Description != "" {
		dst = append(dst, ' ')
		dst = append(dst, rec.Description...)
	}
	dst = append(dst, '\n')
	seq := rec.Seq
	for len(seq) > 0 {
		n := min(defaultWidth, len(seq))
		dst = append(append(dst, seq[:n]...), '\n')
		seq = seq[n:]
	}
	return dst
}

// MarshalRecords renders records to an in-memory FASTA document (the
// conventional 70-column wrapping), sized once.
func MarshalRecords(recs []*Record) ([]byte, error) {
	size := 0
	for _, rec := range recs {
		size += len(">\n") + len(rec.ID) + len(" ") + len(rec.Description) +
			len(rec.Seq) + (len(rec.Seq)+defaultWidth-1)/defaultWidth
	}
	doc := make([]byte, 0, size)
	for _, rec := range recs {
		doc = appendRecord(doc, rec)
	}
	return doc, nil
}

// CountRecords counts records in a FASTA document without retaining
// them: the headers ParseBytes would find, after checking that no
// sequence data comes before the first.
func CountRecords(b []byte) (int, error) {
	n, _, _, err := measure(b)
	return n, err
}
