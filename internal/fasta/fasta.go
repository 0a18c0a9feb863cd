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
// any length; it allocates the records, one string per header (ID and
// Description share it) and one sequence per record, sized before it is
// filled.
func ParseBytes(b []byte) ([]*Record, error) {
	var recs []*Record
	for len(b) > 0 {
		var line []byte
		if line, b = cutLine(b); len(line) == 0 {
			continue
		}
		if line[0] != '>' {
			return nil, fmt.Errorf("%w: %q", ErrNoHeader, line)
		}
		rec := parseHeader(string(line))
		// The sequence is every non-blank line up to the next header.
		n, end := 0, b
		for len(end) > 0 {
			l, rest := cutLine(end)
			if len(l) > 0 && l[0] == '>' {
				break
			}
			n, end = n+len(l), rest
		}
		if n > 0 {
			rec.Seq = make([]byte, 0, n)
			for len(b) > len(end) {
				line, b = cutLine(b)
				rec.Seq = append(rec.Seq, line...)
			}
		}
		b = end
		recs = append(recs, rec)
	}
	return recs, nil
}

// cutLine splits b after its first line and returns that line with
// surrounding white space (a CR before the LF too) trimmed.
func cutLine(b []byte) (line, rest []byte) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return bytes.TrimSpace(b[:i]), b[i+1:]
	}
	return bytes.TrimSpace(b), nil
}

func parseHeader(line string) *Record {
	line = strings.TrimPrefix(line, ">")
	id, desc, found := strings.Cut(line, " ")
	rec := &Record{ID: id}
	if found {
		rec.Description = strings.TrimSpace(desc)
	}
	return rec
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
	n := 0
	for len(b) > 0 {
		var line []byte
		if line, b = cutLine(b); len(line) == 0 {
			continue
		}
		if line[0] == '>' {
			n++
		} else if n == 0 {
			return 0, fmt.Errorf("%w: %q", ErrNoHeader, line)
		}
	}
	return n, nil
}
