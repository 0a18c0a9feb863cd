// Package fasta reads and writes FASTA-formatted sequence data.
//
// The FASTA format stores named biological sequences: each record starts
// with a header line beginning with '>', followed by one or more sequence
// lines. This package supports multi-record files, arbitrary line widths,
// and round-trips records byte-for-byte up to line-wrapping.
package fasta

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

// Reader parses FASTA records from an underlying io.Reader.
type Reader struct {
	s       *bufio.Scanner
	pending string // next header line, already consumed from the scanner
	started bool
	err     error
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	// No up-front buffer: bufio starts at 4 KB and grows on demand, so
	// parsing a few-hundred-byte task input allocates little, while
	// single lines up to 16 MB still parse.
	s.Buffer(nil, 16*1024*1024)
	return &Reader{s: s}
}

// Next returns the next record, or io.EOF when the input is exhausted.
func (r *Reader) Next() (*Record, error) {
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
	rec := parseHeader(header)
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
	r.started = true
	return rec, nil
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

// ReadAll parses every record from r.
func ReadAll(r io.Reader) ([]*Record, error) {
	fr := NewReader(r)
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

// ParseBytes parses every record from an in-memory FASTA document.
func ParseBytes(b []byte) ([]*Record, error) {
	return ReadAll(bytes.NewReader(b))
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

// CountRecords counts records in a FASTA document without retaining them.
func CountRecords(b []byte) (int, error) {
	fr := NewReader(bytes.NewReader(b))
	n := 0
	for {
		_, err := fr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
