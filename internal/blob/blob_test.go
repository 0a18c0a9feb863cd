package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestPutGetDelete(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("in"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("in", "a.txt", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("in", "a.txt", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Errorf("got %q", got)
	}
	if err := s.Delete("in", "a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("in", "a.txt", 0, -1); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("after delete: %v", err)
	}
	// Deleting again is fine (S3 semantics).
	if err := s.Delete("in", "a.txt"); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

func TestBucketErrors(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket(""); err == nil {
		t.Error("empty bucket name should error")
	}
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b"); err != ErrBucketExists {
		t.Errorf("duplicate bucket: %v", err)
	}
	if err := s.Put("missing", "k", nil); err != ErrNoSuchBucket {
		t.Errorf("put to missing bucket: %v", err)
	}
	if _, err := s.Get("missing", "k", 0, -1); err != ErrNoSuchBucket {
		t.Errorf("get from missing bucket: %v", err)
	}
	if _, err := s.List("missing", ""); err != ErrNoSuchBucket {
		t.Errorf("list missing bucket: %v", err)
	}
	if err := s.DeleteBucket("missing"); err != ErrNoSuchBucket {
		t.Errorf("delete missing bucket: %v", err)
	}
	if err := s.DeleteBucket("b"); err != nil {
		t.Fatal(err)
	}
}

func TestEventualConsistencyFreshObject(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	s := NewStore(Config{ConsistencyWindow: 5 * time.Second, Clock: clock})
	s.CreateBucket("b")
	s.Put("b", "new", []byte("v1"))
	// Inside the window a fresh object may be invisible.
	if _, err := s.Get("b", "new", 0, -1); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("inside window: err = %v, want ErrNoSuchKey", err)
	}
	// GetConsistent bypasses the anomaly.
	if got, err := s.GetConsistent("b", "new"); err != nil || string(got) != "v1" {
		t.Errorf("GetConsistent = %q, %v", got, err)
	}
	clock.advance(6 * time.Second)
	if got, err := s.Get("b", "new", 0, -1); err != nil || string(got) != "v1" {
		t.Errorf("after window: %q, %v", got, err)
	}
	u := s.Usage()
	if u.NotFoundReads != 1 {
		t.Errorf("NotFoundReads = %d, want 1", u.NotFoundReads)
	}
}

func TestEventualConsistencyOverwrite(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	s := NewStore(Config{ConsistencyWindow: 5 * time.Second, Clock: clock})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("old"))
	clock.advance(10 * time.Second)
	s.Put("b", "k", []byte("new"))
	// Inside the window the overwrite shows the previous version.
	got, err := s.Get("b", "k", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("stale read = %q, want old", got)
	}
	clock.advance(6 * time.Second)
	got, _ = s.Get("b", "k", 0, -1)
	if string(got) != "new" {
		t.Errorf("converged read = %q, want new", got)
	}
	if s.Usage().StaleReads != 1 {
		t.Errorf("StaleReads = %d, want 1", s.Usage().StaleReads)
	}
}

// Get's range is taken from the version the reader sees: inside the
// window after an overwrite, the previous one.
func TestGetRangeInsideTheWindow(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	s := NewStore(Config{ConsistencyWindow: 5 * time.Second, Clock: clock})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("0123456789"))
	if _, err := s.Get("b", "k", 2, 3); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("ranged read of a fresh object inside the window: %v, want ErrNoSuchKey", err)
	}
	clock.advance(10 * time.Second)
	s.Put("b", "k", []byte("abcdefghij"))
	if got, err := s.Get("b", "k", 2, 3); err != nil || string(got) != "234" {
		t.Errorf("ranged read inside the overwrite's window = %q, %v; want 234", got, err)
	}
	clock.advance(6 * time.Second)
	if got, err := s.Get("b", "k", 8, 5); err != nil || string(got) != "ij" {
		t.Errorf("ranged read past the end = %q, %v; want ij", got, err)
	}
	if _, err := s.Get("b", "k", -1, 1); err == nil {
		t.Error("a negative offset was accepted")
	}
	if u := s.Usage(); u.NotFoundReads != 1 || u.StaleReads != 1 || u.BytesOut != 5 || u.GetRequests != 3 {
		t.Errorf("usage = %+v, want 1 not-found and 1 stale of 3 billed reads, 5 bytes out", u)
	}
}

// Put stores its parts end to end as one object, and bills the request
// and the bytes once.
func TestPutConcatenatesParts(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	if err := s.Put("b", "k", []byte("ab"), nil, []byte("cde")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetConsistent("b", "k"); string(got) != "abcde" {
		t.Errorf("object = %q, want abcde", got)
	}
	if u := s.Usage(); u.PutRequests != 2 || u.BytesIn != 5 || u.BytesStored != 5 {
		t.Errorf("usage = %+v, want 2 PUTs (bucket, object), 5 bytes in and stored", u)
	}
}

// An overwrite updates the key's object in place: the store's copy of the
// bytes is its one allocation.
func TestOverwriteAllocatesOnlyTheCopy(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	data := []byte("payload")
	s.Put("b", "k", data)
	if n := testing.AllocsPerRun(100, func() { s.Put("b", "k", data) }); n != 1 {
		t.Errorf("an overwrite makes %v allocations, want 1", n)
	}
}

func TestStrongConsistencyByDefault(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("x"))
	if got, err := s.Get("b", "k", 0, -1); err != nil || string(got) != "x" {
		t.Errorf("default config should be strongly consistent: %q, %v", got, err)
	}
}

func TestListWithPrefix(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	for _, k := range []string{"in/1", "in/2", "out/1", "zz"} {
		s.Put("b", k, []byte(k))
	}
	keys, err := s.List("b", "in/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "in/1" || keys[1] != "in/2" {
		t.Errorf("List(in/) = %v", keys)
	}
	all, _ := s.List("b", "")
	if len(all) != 4 || !sort.StringsAreSorted(all) {
		t.Errorf("List() = %v, want all four keys sorted", all)
	}
}

func TestUsageAccounting(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b") // 1 put request
	payload := bytes.Repeat([]byte("x"), 1000)
	s.Put("b", "k", payload) // 1 put, 1000 in, 1000 stored
	s.Get("b", "k", 0, -1)   // 1 get, 1000 out
	s.List("b", "")          // 1 list
	s.Delete("b", "k")       // 1 delete, -1000 stored
	u := s.Usage()
	if u.PutRequests != 2 || u.GetRequests != 1 || u.ListRequests != 1 || u.DeleteRequests != 1 {
		t.Errorf("request counts: %+v", u)
	}
	if u.BytesIn != 1000 || u.BytesOut != 1000 {
		t.Errorf("bytes: in=%d out=%d", u.BytesIn, u.BytesOut)
	}
	if u.BytesStored != 0 {
		t.Errorf("BytesStored = %d, want 0 after delete", u.BytesStored)
	}
	if u.Requests() != 5 {
		t.Errorf("Requests() = %d, want 5", u.Requests())
	}
}

func TestOverwriteAccounting(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	s.Put("b", "k", make([]byte, 100))
	s.Put("b", "k", make([]byte, 250))
	if got := s.Usage().BytesStored; got != 250 {
		t.Errorf("BytesStored = %d, want 250 (no double count)", got)
	}
	s.DeleteBucket("b")
	if got := s.Usage().BytesStored; got != 0 {
		t.Errorf("BytesStored after bucket delete = %d", got)
	}
}

// Property: GetConsistent always returns exactly what the latest Put
// wrote, for any sequence of overwrites.
func TestQuickPutGetConsistent(t *testing.T) {
	s := NewStore(Config{ConsistencyWindow: time.Hour, Clock: &fakeClock{now: time.Unix(0, 0)}})
	s.CreateBucket("b")
	i := 0
	f := func(data []byte) bool {
		i++
		key := fmt.Sprintf("k%d", i%5)
		if err := s.Put("b", key, data); err != nil {
			return false
		}
		got, err := s.GetConsistent("b", key)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("abc"))
	got, _ := s.Get("b", "k", 0, -1)
	got[0] = 'X'
	again, _ := s.Get("b", "k", 0, -1)
	if string(again) != "abc" {
		t.Error("mutating a returned slice must not affect the store")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	data := []byte("abc")
	s.Put("b", "k", data)
	data[0] = 'X'
	got, _ := s.Get("b", "k", 0, -1)
	if string(got) != "abc" {
		t.Error("mutating the input slice must not affect the store")
	}
}

func TestInjectedLatency(t *testing.T) {
	s := NewStore(Config{RequestLatency: 30 * time.Millisecond})
	s.CreateBucket("b")
	start := time.Now()
	s.Put("b", "k", []byte("x"))
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("Put returned in %v; latency not applied", elapsed)
	}
}

func TestBandwidthThrottle(t *testing.T) {
	s := NewStore(Config{BandwidthBytesPerSec: 1 << 20}) // 1 MiB/s
	s.CreateBucket("b")
	payload := make([]byte, 1<<18) // 256 KiB → ≥ 250ms
	start := time.Now()
	s.Put("b", "k", payload)
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("256KiB at 1MiB/s took %v; throttle not applied", elapsed)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i)
				if err := s.Put("b", key, []byte(key)); err != nil {
					t.Error(err)
				}
				got, err := s.Get("b", key, 0, -1)
				if err != nil || string(got) != key {
					t.Errorf("get %s: %q, %v", key, got, err)
				}
			}
		}(w)
	}
	wg.Wait()
	keys, _ := s.List("b", "")
	if len(keys) != 400 {
		t.Errorf("got %d keys, want 400", len(keys))
	}
}

// Stat reports the consistent size and the write count of a key after
// each kind of write, bills one GET, and transfers nothing.
func TestStat(t *testing.T) {
	s := NewStore(Config{ConsistencyWindow: time.Hour, Clock: &fakeClock{now: time.Unix(0, 0)}})
	s.CreateBucket("b")
	steps := []struct {
		name        string
		write       func() (int64, error)
		wantVersion int64 // what the write returns (0: not checked)
		wantErr     error
		size, ver   int64 // what Stat reports afterwards
	}{
		{"put", func() (int64, error) { return 0, s.Put("b", "k", []byte("12345")) }, 0, nil, 5, 1},
		{"overwrite", func() (int64, error) { return 0, s.Put("b", "k", []byte("123456789")) }, 0, nil, 9, 2},
		{"append", func() (int64, error) { return s.Append("b", "k", []byte("ab")) }, 3, nil, 11, 3},
		{"winning PutIf", func() (int64, error) { return s.PutIf("b", "k", []byte("xyz"), 3) }, 4, nil, 3, 4},
		// The loser learns the version it lost to and changes nothing.
		{"losing PutIf", func() (int64, error) { return s.PutIf("b", "k", []byte("stale"), 3) }, 4, ErrPreconditionFailed, 3, 4},
	}
	for _, st := range steps {
		v, err := st.write()
		if !errors.Is(err, st.wantErr) {
			t.Fatalf("%s: err = %v, want %v", st.name, err, st.wantErr)
		}
		if st.wantVersion != 0 && v != st.wantVersion {
			t.Errorf("%s returned version %d, want %d", st.name, v, st.wantVersion)
		}
		before := s.Usage()
		size, ver, err := s.Stat("b", "k")
		if err != nil || size != st.size || ver != st.ver {
			t.Errorf("after %s: Stat = (%d, %d, %v), want (%d, %d)", st.name, size, ver, err, st.size, st.ver)
		}
		if u := s.Usage(); u.GetRequests != before.GetRequests+1 || u.BytesOut != before.BytesOut {
			t.Errorf("after %s: Stat billed %+v -> %+v, want one GET and no egress", st.name, before, u)
		}
	}
	if _, _, err := s.Stat("b", "missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("Stat of a missing key: %v, want ErrNoSuchKey", err)
	}
	if _, _, err := s.Stat("nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("Stat in a missing bucket: %v, want ErrNoSuchBucket", err)
	}
}

// GetRange is the read every journal follower tails with: the bytes
// from an offset, the object's total size beside them, egress billed
// for what was returned and nothing more.
func TestGetRange(t *testing.T) {
	// Inside the consistency window on purpose: a range read must see
	// the latest bytes, not the stale view Get would serve.
	s := NewStore(Config{ConsistencyWindow: time.Hour, Clock: &fakeClock{now: time.Unix(0, 0)}})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("0123456789"))
	for _, tc := range []struct {
		name   string
		off, n int64
		want   string
	}{
		{"from the start", 0, 4, "0123"},
		{"from the middle", 3, 4, "3456"},
		{"nothing asked for", 3, 0, ""},
		{"to the end", 6, -1, "6789"},
		{"whole object", 0, -1, "0123456789"},
		{"n beyond the end", 8, 100, "89"},
		{"at the size", 10, -1, ""},
		{"past the size", 25, 4, ""},
	} {
		before := s.Usage()
		data, size, err := s.GetRange("b", "k", tc.off, tc.n)
		if err != nil || string(data) != tc.want || size != 10 {
			t.Errorf("%s: GetRange(%d, %d) = (%q, %d, %v), want (%q, 10)", tc.name, tc.off, tc.n, data, size, err, tc.want)
		}
		u := s.Usage()
		if u.GetRequests != before.GetRequests+1 || u.BytesOut != before.BytesOut+int64(len(tc.want)) {
			t.Errorf("%s: billed %+v -> %+v, want one GET and %d bytes out", tc.name, before, u, len(tc.want))
		}
	}

	before := s.Usage()
	if _, _, err := s.GetRange("b", "k", -1, 4); err == nil {
		t.Error("negative offset accepted")
	}
	if u := s.Usage(); u != before {
		t.Errorf("a rejected range was billed: %+v -> %+v", before, u)
	}
	if _, _, err := s.GetRange("b", "missing", 0, -1); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("range of a missing key: %v, want ErrNoSuchKey", err)
	}
	if _, _, err := s.GetRange("nope", "k", 0, -1); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("range in a missing bucket: %v, want ErrNoSuchBucket", err)
	}

	// The result is the caller's: scribbling on it leaves the object alone.
	data, _, _ := s.GetRange("b", "k", 0, -1)
	data[0] = 'X'
	if got, _ := s.GetConsistent("b", "k"); string(got) != "0123456789" {
		t.Error("GetRange returned a slice of the stored object")
	}
	// A tailing reader sees growth through size, and the new tail at its offset.
	s.Append("b", "k", []byte("ab"))
	if data, size, _ := s.GetRange("b", "k", 10, -1); string(data) != "ab" || size != 12 {
		t.Errorf("tail after append = (%q, %d), want (\"ab\", 12)", data, size)
	}
}
