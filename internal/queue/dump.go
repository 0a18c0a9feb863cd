package queue

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/journal"
)

// DumpJournal prints a durable shard's journal as JSON lines — the
// legible view of a binary log, for an operator rather than for any
// code path: first a header line ({"journal","epoch","bytes","records"}),
// then {"snapshot":…} when the epoch has one, then one line per record
// with ops by name and bodies in base64 (Go's JSON for []byte).
//
// It only reads — no Recover, no claim on the log, safe against a live
// primary — and it refuses nothing it can still make sense of: a record
// or snapshot that does not decode becomes an {"error":…} line in its
// place, and a log whose frames are damaged is printed up to the damage,
// then the error naming the byte offset. The first such error is also
// returned (journal.ErrCorrupt), after everything readable was written.
func DumpJournal(w io.Writer, log journal.Log) error {
	v, loadErr := log.Load()
	if v == nil {
		return loadErr
	}
	var first error
	enc := json.NewEncoder(w)
	emit := func(line any) {
		if err := enc.Encode(line); err != nil && first == nil {
			first = fmt.Errorf("queue: writing journal dump: %w", err)
		}
	}
	fail := func(err error) {
		emit(map[string]string{"error": err.Error()})
		if first == nil {
			first = err
		}
	}
	emit(struct {
		Journal string `json:"journal"`
		Epoch   int64  `json:"epoch"`
		Bytes   int64  `json:"bytes"`
		Records int    `json:"records"`
	}{log.Bucket + "/" + log.Key, v.Seq, v.Size, len(v.Entries)})
	if v.Snapshot != nil {
		if snap, err := decodeSnapshot(v.Snapshot); err != nil {
			fail(corrupt(fmt.Sprintf("queue: journal snapshot of epoch %d", v.Seq), err))
		} else {
			emit(map[string]*durSnapshot{"snapshot": snap})
		}
	}
	var rec durRecord
	for i, e := range v.Entries {
		if err := rec.decode(e); err != nil {
			fail(corrupt(fmt.Sprintf("queue: journal record %d", i+1), err))
			continue
		}
		// omitempty cannot drop a zero time.Time, a struct, whatever the
		// Go version: a pointer that is nil for one can.
		line := struct {
			*durRecord
			T *time.Time `json:"t,omitempty"`
		}{durRecord: &rec}
		if !rec.T.IsZero() {
			line.T = &rec.T
		}
		emit(line)
	}
	if loadErr != nil {
		fail(loadErr)
	}
	return first
}
