package journal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blob"
)

func newStore(t *testing.T) *blob.Store {
	t.Helper()
	store := blob.NewStore(blob.Config{})
	if err := store.CreateBucket("j"); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestCreateIsExclusive(t *testing.T) {
	l := Log{Store: newStore(t), Bucket: "j", Key: "logs/a"}
	if err := l.Create([]byte(`{"op":"genesis"}`)); err != nil {
		t.Fatal(err)
	}
	err := l.Create([]byte(`{"op":"genesis"}`))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("second create: %v, want ErrExists", err)
	}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	l := Log{Store: newStore(t), Bucket: "j", Key: "logs/a"}
	want := [][]byte{[]byte(`{"n":1}`), []byte(`{"n":2}`), []byte(`{"n":3}`)}
	if err := l.Create(want[0]); err != nil {
		t.Fatal(err)
	}
	for _, rec := range want[1:] {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	v, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 0 || v.Snapshot != nil {
		t.Errorf("uncompacted log: seq=%d snapshot=%q", v.Seq, v.Snapshot)
	}
	if len(v.Entries) != len(want) {
		t.Fatalf("entries = %d, want %d", len(v.Entries), len(want))
	}
	for i := range want {
		if !bytes.Equal(v.Entries[i], want[i]) {
			t.Errorf("entry %d = %q, want %q", i, v.Entries[i], want[i])
		}
	}
}

// Payloads are opaque: bytes that the line format had to refuse
// ('!'-leading, newline-carrying) and ones that look like framing (a
// 33-byte record's length prefix is 0x21 = '!', a payload of frame tags)
// come back exactly. Only the empty record is rejected.
func TestOpaquePayloadsRoundTrip(t *testing.T) {
	l := Log{Store: newStore(t), Bucket: "j", Key: "logs/a"}
	want := [][]byte{
		[]byte("!control"),
		[]byte("a\nb\n"),
		bytes.Repeat([]byte{'x'}, 33),
		{frameTag, frameTag, 0x00, 0xff},
		bytes.Repeat([]byte{'!'}, 300), // two-byte length prefix
		[]byte(`{"n":1}`),
	}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append(%q): %v", rec, err)
		}
	}
	v, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Entries) != len(want) {
		t.Fatalf("entries = %d, want %d", len(v.Entries), len(want))
	}
	for i := range want {
		if !bytes.Equal(v.Entries[i], want[i]) {
			t.Errorf("entry %d = %q, want %q", i, v.Entries[i], want[i])
		}
	}
	for _, empty := range [][]byte{nil, {}} {
		if err := l.Append(empty); err == nil {
			t.Error("Append of an empty record accepted")
		}
		if err := (Log{Store: l.Store, Bucket: "j", Key: "logs/b"}).Create(empty); err == nil {
			t.Error("Create with an empty record accepted")
		}
	}
}

// selfEncoding is a Record that appends its bytes in two steps, as an
// encoder building a record field by field does.
type selfEncoding struct{ head, tail string }

func (r selfEncoding) AppendTo(dst []byte) []byte {
	return append(append(dst, r.head...), r.tail...)
}

// AppendRecord writes exactly the frame Append writes for the same
// bytes, whatever the pooled buffer held before.
func TestAppendRecordMatchesAppend(t *testing.T) {
	store := newStore(t)
	a := Log{Store: store, Bucket: "j", Key: "logs/a"}
	b := Log{Store: store, Bucket: "j", Key: "logs/b"}
	for _, n := range []int{1, 127, 128, 20_000, 3} {
		rec := selfEncoding{head: "h", tail: string(bytes.Repeat([]byte{'t'}, n-1))}
		if err := a.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(rec.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AppendRecord(selfEncoding{}); err == nil {
		t.Error("AppendRecord of an empty record accepted")
	}
	da, _ := store.GetConsistent("j", "logs/a")
	db, _ := store.GetConsistent("j", "logs/b")
	if !bytes.Equal(da, db) || len(da) == 0 {
		t.Errorf("AppendRecord wrote %d bytes, Append %d; want identical documents", len(da), len(db))
	}
	var doc []byte
	for _, n := range []int{1, 127, 128, 20_000, 3} {
		doc = AppendFrame(doc, append([]byte("h"), bytes.Repeat([]byte{'t'}, n-1)...))
	}
	if !bytes.Equal(da, doc) {
		t.Error("AppendFrame does not render the bytes Append writes")
	}
}

func TestLoadMissingLog(t *testing.T) {
	l := Log{Store: newStore(t), Bucket: "j", Key: "logs/missing"}
	if _, err := l.Load(); !errors.Is(err, blob.ErrNoSuchKey) {
		t.Fatalf("Load = %v, want ErrNoSuchKey", err)
	}
}

func TestSnapshotTruncatesAndBoundsReplay(t *testing.T) {
	l := Log{Store: newStore(t), Bucket: "j", Key: "logs/a"}
	if err := l.Create([]byte(`{"n":0}`)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		if err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("state@100")); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land after the snapshot.
	if err := l.Append([]byte(`{"n":100}`)); err != nil {
		t.Fatal(err)
	}
	v, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Snapshot) != "state@100" {
		t.Errorf("snapshot = %q", v.Snapshot)
	}
	if len(v.Entries) != 1 || !bytes.Equal(v.Entries[0], []byte(`{"n":100}`)) {
		t.Errorf("replay tail = %q, want exactly the post-snapshot record", v.Entries)
	}
	if v.Seq == 0 {
		t.Error("compacted log reports epoch 0")
	}

	// Second compaction: a newer epoch replaces the old, and the old
	// epoch's snapshot object is garbage-collected.
	if err := l.Snapshot([]byte("state@101")); err != nil {
		t.Fatal(err)
	}
	v2, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(v2.Snapshot) != "state@101" || len(v2.Entries) != 0 {
		t.Errorf("after second snapshot: snapshot=%q entries=%q", v2.Snapshot, v2.Entries)
	}
	if v2.Seq <= v.Seq {
		t.Errorf("epochs not increasing: %d then %d", v.Seq, v2.Seq)
	}
	keys, err := l.Store.List("j", "logs/a"+snapInfix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Errorf("stale snapshot objects not collected: %v", keys)
	}
}

func TestSnapshotRacedByAppend(t *testing.T) {
	// Simulate the race by appending between Stat and the CAS: here,
	// simply snapshot against a version observed before an append.
	store := newStore(t)
	l := Log{Store: store, Bucket: "j", Key: "logs/a"}
	if err := l.Create([]byte(`{"n":0}`)); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot exactly as Snapshot would, but truncate against
	// a stale version to model the interleaving.
	if _, err := store.Append("j", "logs/a", AppendFrame(nil, []byte(`{"n":1}`))); err != nil {
		t.Fatal(err)
	}
	if _, err := store.PutIf("j", "logs/a", []byte("!{\"seq\":2}\n"), 1); !errors.Is(err, blob.ErrPreconditionFailed) {
		t.Fatalf("stale truncation CAS = %v, want precondition failure", err)
	}
	// The log is intact: both records still fold.
	v, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Entries) != 2 {
		t.Errorf("entries after lost CAS = %d, want 2", len(v.Entries))
	}
}

func TestCrashBetweenSnapshotAndTruncateIsSafe(t *testing.T) {
	// An orphan snapshot object (written, but the truncation never
	// happened) must not change what Load returns.
	store := newStore(t)
	l := Log{Store: store, Bucket: "j", Key: "logs/a"}
	if err := l.Create([]byte(`{"n":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("j", l.snapKey(99), []byte("orphan state")); err != nil {
		t.Fatal(err)
	}
	v, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshot != nil || len(v.Entries) != 1 {
		t.Errorf("orphan snapshot leaked into Load: %+v", v)
	}
}

func TestHeadAndTail(t *testing.T) {
	l := Log{Store: newStore(t), Bucket: "j", Key: "logs/a"}
	if err := l.Create([]byte(`{"n":0}`)); err != nil {
		t.Fatal(err)
	}
	seq, size, err := l.Head()
	if err != nil || seq != 0 || size == 0 {
		t.Fatalf("Head = (%d, %d, %v)", seq, size, err)
	}
	if err := l.Append([]byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	tail, newSize, err := l.Tail(size)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := SplitEntries(tail)
	if err != nil || len(entries) != 1 || !bytes.Equal(entries[0], []byte(`{"n":1}`)) {
		t.Errorf("tail entries = %q (err %v)", entries, err)
	}
	if newSize != size+int64(len(tail)) {
		t.Errorf("size accounting: %d + %d != %d", size, len(tail), newSize)
	}

	// After a truncation, the follower's stale offset reads past-end —
	// the size shrink is the rebuild signal.
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	_, shrunk, err := l.Tail(newSize)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk >= newSize {
		t.Errorf("size after truncation = %d, want < %d", shrunk, newSize)
	}
	seq, _, err = l.Head()
	if err != nil || seq == 0 {
		t.Errorf("Head after snapshot = (%d, %v), want a nonzero epoch", seq, err)
	}
}

func TestDeleteRemovesSnapshots(t *testing.T) {
	store := newStore(t)
	l := Log{Store: store, Bucket: "j", Key: "logs/a"}
	if err := l.Create([]byte(`{"n":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(); err != nil {
		t.Fatal(err)
	}
	keys, err := store.List("j", "logs/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("objects left after Delete: %v", keys)
	}
}

func TestListExcludesSnapshots(t *testing.T) {
	store := newStore(t)
	a := Log{Store: store, Bucket: "j", Key: "logs/a"}
	b := Log{Store: store, Bucket: "j", Key: "logs/b"}
	for _, l := range []Log{a, b} {
		if err := l.Create([]byte(`{"n":0}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	logs, err := List(store, "j", "logs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 2 || logs[0] != "logs/a" || logs[1] != "logs/b" {
		t.Errorf("List = %v, want [logs/a logs/b]", logs)
	}
}

func TestIsSnapshotKey(t *testing.T) {
	cases := map[string]bool{
		"logs/a":           false,
		"logs/a.snap.3":    true,
		"logs/a.snap.":     false,
		"logs/a.snap.x":    false,
		"logs/a.snap.3.b":  false,
		"a.snap.12.snap.7": true,
	}
	for k, want := range cases {
		if got := IsSnapshotKey(k); got != want {
			t.Errorf("IsSnapshotKey(%q) = %v, want %v", k, got, want)
		}
	}
}

func TestLoadCorruptHeader(t *testing.T) {
	store := newStore(t)
	l := Log{Store: store, Bucket: "j", Key: "logs/a"}
	for _, doc := range []string{"!notjson\n", "!{\"seq\":0}\n", "!{\"seq\":7}\n"} {
		if err := store.Put("j", "logs/a", []byte(doc)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Load(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Load(%q) = %v, want ErrCorrupt", doc, err)
		}
	}
}

// Bytes that are not whole frames are ErrCorrupt, with a message that
// places the damage — and, for a log written as JSON lines before frames
// existed, says that is what it is.
func TestLoadCorruptFrames(t *testing.T) {
	store := newStore(t)
	l := Log{Store: store, Bucket: "j", Key: "logs/a"}
	good := AppendFrame(nil, []byte("first"))
	long := AppendFrame(nil, bytes.Repeat([]byte{'x'}, 200))
	cases := []struct {
		name, wantMsg string
		doc           []byte
	}{
		{"torn final frame", "truncated frame at offset 7 (record 2)", append(append([]byte(nil), good...), long[:50]...)},
		{"cut inside the length prefix", "truncated frame at offset 7", append(append([]byte(nil), good...), long[:2]...)},
		{"tag alone", "truncated frame at offset 7", append(append([]byte(nil), good...), frameTag)},
		{"length beyond the log", "truncated frame at offset 0", []byte{frameTag, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}},
		{"length overflowing uvarint", "truncated frame at offset 0", append([]byte{frameTag}, bytes.Repeat([]byte{0xff}, 11)...)},
		{"empty frame", "empty frame at offset 7", append(append([]byte(nil), good...), frameTag, 0)},
		{"control line mid-log", "control line at offset 7", append(append([]byte(nil), good...), "!{\"seq\":3}\n"...)},
		{"unknown tag", "unknown frame tag 0x7f at offset 0", []byte{0x7f, 1, 'x'}},
		{"pre-frame JSON lines", "predates the framed journal format", []byte("{\"op\":\"genesis\"}\n{\"op\":\"create\",\"q\":\"q\"}\n")},
		{"pre-frame JSON lines after a header", "predates the framed journal format", []byte("!{\"seq\":2}\n{\"n\":1}\n")},
	}
	if err := store.Put("j", l.snapKey(2), []byte("state")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if err := store.Put("j", "logs/a", tc.doc); err != nil {
			t.Fatal(err)
		}
		_, err := l.Load()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: Load = %v, want ErrCorrupt mentioning %q", tc.name, err, tc.wantMsg)
		}
	}
}

// FuzzLoad feeds arbitrary bytes through the log parser: garbage, torn
// frames, length bombs, and misplaced control lines must surface as
// ErrCorrupt — never a panic — and a successful parse must return
// non-empty records that are disjoint sub-slices of the input, in order
// (so nothing was allocated on a declared length's say-so).
func FuzzLoad(f *testing.F) {
	two := AppendFrame(AppendFrame(nil, []byte(`{"n":1}`)), []byte{0x01, 0x00, '!', '\n'})
	f.Add(two)
	f.Add(append([]byte("!{\"seq\":3}\n"), two...))
	f.Add(two[:len(two)-1])                                         // truncated final frame
	f.Add([]byte{frameTag, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})     // declared length > remaining
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{'r'}, 33)))          // length byte 0x21 = '!'
	f.Add(append(append([]byte(nil), two...), "!{\"seq\":3}\n"...)) // control line mid-log
	f.Add([]byte("{\"n\":1}\n{\"n\":2}\n"))                         // pre-frame JSON lines
	f.Add([]byte("!{\"seq\":"))
	f.Add([]byte("!\n!\n"))
	f.Add([]byte{frameTag, 0})
	f.Fuzz(func(t *testing.T, doc []byte) {
		store := blob.NewStore(blob.Config{})
		if err := store.CreateBucket("j"); err != nil {
			t.Fatal(err)
		}
		if err := store.Put("j", "logs/f", doc); err != nil {
			t.Fatal(err)
		}
		// Plant a snapshot object for every plausible small seq so a
		// valid header finds one and exercises the snapshot path too.
		for seq := int64(1); seq <= 16; seq++ {
			_ = store.Put("j", fmt.Sprintf("logs/f.snap.%d", seq), []byte("state"))
		}
		l := Log{Store: store, Bucket: "j", Key: "logs/f"}
		v, err := l.Load()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load(%q) = %v, want ErrCorrupt", doc, err)
			}
			return
		}
		cur := 0
		for _, e := range v.Entries {
			if len(e) == 0 {
				t.Fatalf("parsed an empty entry from %q", doc)
			}
			// Each payload sits behind at least a tag and a length byte.
			at := bytes.Index(doc[min(cur+2, len(doc)):], e)
			if at < 0 {
				t.Fatalf("entry %q is not a sub-slice of %q past offset %d", e, doc, cur)
			}
			cur += 2 + at + len(e)
		}
	})
}
