// Package journal is the shared event-sourcing substrate of the
// system's durability story: an append-only log of length-framed records
// in a blob object, plus snapshot + truncate compaction that bounds how
// much of the log a recovery must replay.
//
// The broker proved the pattern out (PR 3): every state transition is a
// record appended to a per-object journal, the in-memory state is
// nothing but a fold over those records, and recovery is re-running the
// fold. This package extracts the mechanics — CAS-guarded creation,
// appends, epoch-tagged snapshots, tail reads for followers — so queue
// shards and the broker journal through one implementation instead of
// two.
//
// # On-disk format
//
// A Log is one blob object: an optional epoch header line, then record
// frames back to back.
//
//	log    = [ header ] frame*
//	header = '!' {"seq":N} '\n'
//	frame  = tag(1) || uvarint(len(payload)) || payload
//	tag    = 0x01
//
// Payloads are opaque to this package — any bytes but none at all, so
// binary records (queue shards) and JSON records (broker, catalog) share
// the framing. The tag is the format's version byte: it is what tells a
// frame from a header ('!'), from a log written as JSON lines before
// frames existed ('{', refused with a message saying so), and from
// garbage. Every append writes whole frames, so a log that ends inside
// one (a length prefix promising more bytes than remain, or cut short
// itself) was torn or truncated after the fact and is ErrCorrupt — as is
// an unknown tag or a header anywhere but first.
//
// The header is written by Snapshot. A log that has been compacted
// starts with it; the state as of the truncation lives in a sibling
// object <key>.snap.N. A log that has never been compacted has no header
// (epoch 0).
//
// Snapshots go to per-epoch keys, not one well-known key, so a crash
// between "write snapshot" and "truncate log" leaves an orphan snapshot
// object and an untouched log — never a log whose header points at a
// snapshot from a different epoch.
//
// # Writer discipline
//
// A Log has one writer at a time: creation is CAS-guarded (PutIf
// version 0) precisely so a second writer cannot silently adopt a live
// journal. Snapshot is CAS-guarded too — it truncates only if no append
// raced it — so even a misbehaving second writer cannot make a
// compaction eat another writer's records.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/blob"
	"repro/internal/codec"
)

// Errors returned by this package, always wrapped with context; match
// with errors.Is. Blob-store errors (blob.ErrNoSuchKey for a log that
// does not exist yet, blob.ErrNoSuchBucket) pass through untranslated.
var (
	// ErrExists rejects Create against a log that already exists — the
	// caller is a second writer and must recover, not append.
	ErrExists = errors.New("journal: log already exists")
	// ErrRaced reports a Snapshot that lost its truncation CAS to a
	// concurrent append. Nothing was truncated; the caller retries once
	// its appends have quiesced.
	ErrRaced = errors.New("journal: snapshot raced a concurrent append")
	// ErrCorrupt reports a log whose structure cannot be decoded: an
	// unparsable header, a header pointing at a snapshot object that is
	// missing, or bytes that are not whole record frames. Record owners
	// wrap it too when a well-framed payload does not decode.
	ErrCorrupt = errors.New("journal: corrupt log")
)

// snapInfix separates a log key from the epoch number of one of its
// snapshot objects.
const snapInfix = ".snap."

// headerPrefix starts the epoch header line; frameTag starts every
// record frame. A frame's header is at most frameHeadroom bytes.
const (
	headerPrefix  = '!'
	frameTag      = 0x01
	frameHeadroom = 1 + binary.MaxVarintLen64
)

// header is the epoch control line: the log was truncated at version
// Seq and the pre-truncation state lives in <key>.snap.<Seq>.
type header struct {
	Seq int64 `json:"seq"`
}

// Log names one append-only journal object. The zero value is not
// usable; all three fields are required. Log is a value type — copies
// share no state beyond the store itself.
type Log struct {
	Store  *blob.Store
	Bucket string
	Key    string
}

func (l Log) snapKey(seq int64) string {
	return fmt.Sprintf("%s%s%d", l.Key, snapInfix, seq)
}

// A Record encodes itself by appending to dst — what AppendRecord takes
// so a hot-path writer's record is built directly behind its frame
// header in a pooled buffer, with no intermediate []byte.
type Record interface {
	AppendTo(dst []byte) []byte
}

// AppendFrame appends rec as one record frame to dst: the bytes Append
// would write, for callers assembling a whole log document themselves.
func AppendFrame(dst, rec []byte) []byte {
	dst = append(dst, frameTag)
	dst = binary.AppendUvarint(dst, uint64(len(rec)))
	return append(dst, rec...)
}

var errEmptyRecord = errors.New("journal: empty record")

// Create opens the log with its first record, using the blob store's
// compare-and-swap so creation is exclusive: two writers racing to own
// one key cannot both win. ErrExists reports the loss.
func (l Log) Create(rec []byte) error {
	if len(rec) == 0 {
		return errEmptyRecord
	}
	if _, err := l.Store.PutIf(l.Bucket, l.Key, AppendFrame(nil, rec), 0); err != nil {
		if errors.Is(err, blob.ErrPreconditionFailed) {
			return fmt.Errorf("%w: %s/%s", ErrExists, l.Bucket, l.Key)
		}
		return fmt.Errorf("journal: creating %s/%s: %w", l.Bucket, l.Key, err)
	}
	return nil
}

// Append adds one record to the log, creating it when absent. The
// caller must not act on a state transition whose append failed: the
// journal is the source of truth.
func (l Log) Append(rec []byte) error {
	if len(rec) == 0 {
		return errEmptyRecord
	}
	bp := codec.GetBuf()
	defer codec.PutBuf(bp)
	*bp = AppendFrame(*bp, rec)
	return l.appendFrame(*bp)
}

// AppendRecord is Append for a record that encodes itself. Its length
// is not known up front, so the payload is encoded behind room for the
// longest possible frame header and the real header is then written
// right-justified against it: one contiguous frame, no second copy.
func (l Log) AppendRecord(r Record) error {
	bp := codec.GetBuf()
	defer codec.PutBuf(bp)
	var room [frameHeadroom]byte
	*bp = r.AppendTo(append(*bp, room[:]...))
	n := len(*bp) - frameHeadroom
	if n == 0 {
		return errEmptyRecord
	}
	room[0] = frameTag
	start := frameHeadroom - 1 - binary.PutUvarint(room[1:], uint64(n))
	copy((*bp)[start:], room[:frameHeadroom-start])
	return l.appendFrame((*bp)[start:])
}

func (l Log) appendFrame(frame []byte) error {
	if _, err := l.Store.Append(l.Bucket, l.Key, frame); err != nil {
		return fmt.Errorf("journal: appending to %s/%s: %w", l.Bucket, l.Key, err)
	}
	return nil
}

// AppendJSON marshals v as the record.
func (l Log) AppendJSON(v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	return l.Append(rec)
}

// View is one consistent parse of a log: the snapshot state of its
// current epoch (nil when the log has never been compacted) and every
// record appended since. Size is the log object's byte length at read
// time — the offset a tailing reader resumes from.
type View struct {
	Seq      int64
	Snapshot []byte
	Entries  [][]byte
	Size     int64
}

// Load reads and parses the whole log. A log that does not exist
// returns blob.ErrNoSuchKey (wrapped). When the damage is in the frames
// (ErrCorrupt naming a byte offset) the View is returned alongside the
// error and holds the snapshot and every record before that offset, for
// tools that print what is still readable; a fold must not use it.
//
// The log and its epoch snapshot are two objects read with two GETs, so
// a concurrent Snapshot can delete the snapshot Load's header points at
// (dropStaleSnapshots) between them. That race is benign — the log now
// carries a newer epoch — so a missing snapshot object triggers one
// re-read of the log before it is reported as corruption.
func (l Log) Load() (*View, error) {
	v, retry, err := l.loadOnce()
	if retry {
		v, _, err = l.loadOnce()
	}
	return v, err
}

func (l Log) loadOnce() (v *View, retry bool, err error) {
	data, err := l.Store.GetConsistent(l.Bucket, l.Key)
	if err != nil {
		return nil, false, err
	}
	v = &View{Size: int64(len(data))}
	rest := data
	if seq, ok, err := parseHeader(data); err != nil {
		return nil, false, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, l.Bucket, l.Key, err)
	} else if ok {
		v.Seq = seq
		v.Snapshot, err = l.Store.GetConsistent(l.Bucket, l.snapKey(seq))
		if err != nil {
			return nil, errors.Is(err, blob.ErrNoSuchKey),
				fmt.Errorf("%w: %s/%s: epoch %d snapshot: %v", ErrCorrupt, l.Bucket, l.Key, seq, err)
		}
		rest = data[bytes.IndexByte(data, '\n')+1:]
	}
	v.Entries, err = splitFrames(rest, len(data)-len(rest))
	if err != nil {
		return v, false, fmt.Errorf("%s/%s: %w", l.Bucket, l.Key, err)
	}
	return v, false, nil
}

// parseHeader decodes the epoch header when the data starts with one.
func parseHeader(data []byte) (seq int64, ok bool, err error) {
	if len(data) == 0 || data[0] != headerPrefix {
		return 0, false, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return 0, false, errors.New("unterminated header line")
	}
	var h header
	if err := json.Unmarshal(data[1:nl], &h); err != nil {
		return 0, false, fmt.Errorf("decoding header: %v", err)
	}
	if h.Seq <= 0 {
		return 0, false, fmt.Errorf("header seq %d out of range", h.Seq)
	}
	return h.Seq, true, nil
}

// SplitEntries walks journal bytes frame by frame and returns the
// payloads, which alias data. The bytes must be whole frames: a header
// is only valid as the first line of a log (Load strips it before
// walking the rest), and a final frame that runs past the end means the
// log was torn. Every error wraps ErrCorrupt, names the byte offset of
// the frame it could not read, and comes with the payloads before it.
func SplitEntries(data []byte) ([][]byte, error) { return splitFrames(data, 0) }

// splitFrames is SplitEntries for bytes that start base bytes into a
// log, so that its errors name offsets in the log.
func splitFrames(data []byte, base int) ([][]byte, error) {
	var entries [][]byte
	bad := func(off int, what string) ([][]byte, error) {
		return entries, fmt.Errorf("%w: %s at offset %d (record %d)", ErrCorrupt, what, base+off, len(entries)+1)
	}
	for off := 0; off < len(data); {
		switch tag := data[off]; tag {
		case frameTag:
		case headerPrefix:
			return bad(off, "control line")
		case '{':
			return bad(off, "JSON-lines record (this log predates the framed journal format and cannot be read)")
		default:
			return bad(off, fmt.Sprintf("unknown frame tag %#02x", tag))
		}
		n, used := binary.Uvarint(data[off+1:])
		body := off + 1 + used
		if used <= 0 || n > uint64(len(data)-body) {
			return bad(off, "truncated frame")
		}
		if n == 0 {
			return bad(off, "empty frame")
		}
		end := body + int(n)
		entries = append(entries, data[body:end:end])
		off = end
	}
	return entries, nil
}

// Head reads the log's epoch and byte size without transferring its
// records — the cheap poll a follower runs between tail reads. seq is 0
// for a never-compacted log.
func (l Log) Head() (seq, size int64, err error) {
	data, size, err := l.Store.GetRange(l.Bucket, l.Key, 0, 128)
	if err != nil {
		return 0, 0, err
	}
	if len(data) > 0 && data[0] == headerPrefix {
		s, ok, err := parseHeader(data)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, l.Bucket, l.Key, err)
		}
		seq = s
	}
	return seq, size, nil
}

// Tail reads the log's bytes from offset off (consistent view) plus its
// current total size. Appends are whole frames, so a tail that starts at
// a previously observed size always starts at a frame boundary —
// unless the log was truncated underneath the reader, which the
// returned size (smaller than off) reveals.
func (l Log) Tail(off int64) (data []byte, size int64, err error) {
	return l.Store.GetRange(l.Bucket, l.Key, off, -1)
}

// Snapshot compacts the log: it writes state to this epoch's snapshot
// object, then truncates the log to a single header line via
// compare-and-swap against the version it observed. An append that
// slips between the two fails the CAS and nothing is truncated
// (ErrRaced) — with a quiesced writer, which is the normal calling
// convention, the CAS always succeeds. Older epochs' snapshot objects
// are deleted best-effort after a successful truncation.
func (l Log) Snapshot(state []byte) error {
	_, version, err := l.Store.Stat(l.Bucket, l.Key)
	if err != nil {
		return fmt.Errorf("journal: snapshotting %s/%s: %w", l.Bucket, l.Key, err)
	}
	// The post-truncation version is the epoch tag, so successive
	// snapshots of one log get strictly increasing seqs.
	seq := version + 1
	if err := l.Store.Put(l.Bucket, l.snapKey(seq), state); err != nil {
		return fmt.Errorf("journal: writing snapshot %s/%s: %w", l.Bucket, l.snapKey(seq), err)
	}
	line, err := json.Marshal(header{Seq: seq})
	if err != nil {
		return fmt.Errorf("journal: encoding header: %w", err)
	}
	doc := make([]byte, 0, len(line)+2)
	doc = append(doc, headerPrefix)
	doc = append(doc, line...)
	doc = append(doc, '\n')
	if _, err := l.Store.PutIf(l.Bucket, l.Key, doc, version); err != nil {
		if errors.Is(err, blob.ErrPreconditionFailed) {
			return fmt.Errorf("%w: %s/%s", ErrRaced, l.Bucket, l.Key)
		}
		return fmt.Errorf("journal: truncating %s/%s: %w", l.Bucket, l.Key, err)
	}
	l.dropStaleSnapshots(seq)
	return nil
}

// dropStaleSnapshots best-effort deletes snapshot objects of epochs
// before keep.
func (l Log) dropStaleSnapshots(keep int64) {
	keys, err := l.Store.List(l.Bucket, l.Key+snapInfix)
	if err != nil {
		return
	}
	for _, k := range keys {
		var seq int64
		if _, err := fmt.Sscanf(k[len(l.Key+snapInfix):], "%d", &seq); err != nil {
			continue
		}
		if seq < keep {
			_ = l.Store.Delete(l.Bucket, k)
		}
	}
}

// Delete removes the log and all of its snapshot objects.
func (l Log) Delete() error {
	if err := l.Store.Delete(l.Bucket, l.Key); err != nil {
		return err
	}
	keys, err := l.Store.List(l.Bucket, l.Key+snapInfix)
	if err != nil {
		return nil // the log itself is gone; snapshots are best-effort
	}
	for _, k := range keys {
		_ = l.Store.Delete(l.Bucket, k)
	}
	return nil
}

// IsSnapshotKey reports whether a bucket key names some log's snapshot
// object rather than a log.
func IsSnapshotKey(key string) bool {
	i := strings.LastIndex(key, snapInfix)
	if i < 0 {
		return false
	}
	tail := key[i+len(snapInfix):]
	if tail == "" {
		return false
	}
	for _, c := range tail {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// List returns the log keys under a prefix, sorted, excluding snapshot
// objects — the recovery enumeration ("which journals exist?").
func List(store *blob.Store, bucketName, prefix string) ([]string, error) {
	keys, err := store.List(bucketName, prefix)
	if err != nil {
		return nil, err
	}
	logs := keys[:0]
	for _, k := range keys {
		if !IsSnapshotKey(k) {
			logs = append(logs, k)
		}
	}
	return logs, nil
}
