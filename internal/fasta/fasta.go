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

// Header returns the full header line content (without the leading '>').
func (r *Record) Header() string {
	if r.Description == "" {
		return r.ID
	}
	return r.ID + " " + r.Description
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

// Writer emits FASTA records with a configurable line width.
type Writer struct {
	w     *bufio.Writer
	Width int // sequence line width; <=0 means a single unwrapped line
}

// NewWriter returns a Writer emitting to w with the conventional 70-column
// sequence wrapping.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), Width: 70}
}

// Write emits one record.
func (w *Writer) Write(rec *Record) error {
	if _, err := w.w.WriteString(">" + rec.Header() + "\n"); err != nil {
		return err
	}
	seq := rec.Seq
	if w.Width <= 0 {
		if _, err := w.w.Write(seq); err != nil {
			return err
		}
		return w.w.WriteByte('\n')
	}
	for len(seq) > 0 {
		n := w.Width
		if n > len(seq) {
			n = len(seq)
		}
		if _, err := w.w.Write(seq[:n]); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
		seq = seq[n:]
	}
	return nil
}

// Flush commits buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// MarshalRecords renders records to an in-memory FASTA document.
func MarshalRecords(recs []*Record) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
