// Package blob simulates the cloud storage services of the paper —
// Amazon S3 and Azure Blob Storage: buckets of named objects accessed
// through a high-latency web-service interface, eventual consistency for
// newly written objects, per-request and per-byte accounting for the
// pricing model, and optional injected latency/bandwidth so the real
// execution frameworks experience "off-the-node cloud storage" timing.
package blob

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Clock abstracts time (see queue.Clock); nil selects the wall clock.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Config tunes store behaviour.
type Config struct {
	// ConsistencyWindow: a GET within this window after a PUT may see the
	// previous state (stale data or absence). 0 gives strong consistency.
	ConsistencyWindow time.Duration
	// RequestLatency is slept on every call when > 0, emulating the HTTP
	// round trip of the storage web service.
	RequestLatency time.Duration
	// BandwidthBytesPerSec throttles transfers when > 0: an object of n
	// bytes additionally sleeps n/Bandwidth.
	BandwidthBytesPerSec float64
	// Clock defaults to the wall clock.
	Clock Clock
	// Metrics, when set, receives per-op latency histograms (blob_op_ns,
	// including simulated transfer time) and gauges over the accounting
	// counters (blob_bytes_in/out/stored, blob_requests). Nil leaves the
	// data path uninstrumented.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Usage aggregates the accounting dimensions the storage services bill:
// request counts, transferred bytes, and stored bytes.
type Usage struct {
	PutRequests    int64
	GetRequests    int64
	ListRequests   int64
	DeleteRequests int64
	BytesIn        int64
	BytesOut       int64
	BytesStored    int64
	NotFoundReads  int64 // GETs that observed eventual-consistency absence
	StaleReads     int64 // GETs that observed a previous version
}

// Requests returns the total billed request count.
func (u Usage) Requests() int64 {
	return u.PutRequests + u.GetRequests + u.ListRequests + u.DeleteRequests
}

// Errors returned by the store.
var (
	ErrNoSuchBucket = errors.New("blob: no such bucket")
	ErrNoSuchKey    = errors.New("blob: no such key")
	ErrBucketExists = errors.New("blob: bucket already exists")
	// ErrPreconditionFailed is returned by PutIf when the object's current
	// version does not match the caller's expectation — the CAS loss.
	ErrPreconditionFailed = errors.New("blob: precondition failed")
)

type object struct {
	data      []byte
	writtenAt time.Time
	prev      []byte // previous version, visible inside the consistency window
	hadPrev   bool
	// version counts writes to this key (Put, PutIf, Append), starting at
	// 1. It is the CAS token for PutIf, the ETag of a real store.
	version int64
}

type bucket struct {
	objects map[string]*object
}

// Store is an in-process blob service shared by clients and workers.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	buckets map[string]*bucket
	usage   Usage
	// met is non-nil iff Config.Metrics was set.
	met map[string]*telemetry.Histogram
}

// storeOps is the set of operations that get their own latency
// histogram. "get" covers Get, GetConsistent, Stat, and Exists — all
// billed GETs; latency includes the simulated transfer sleep, so the
// histograms show what callers actually waited.
var storeOps = []string{"put", "put_if", "append", "get", "delete", "list"}

// NewStore creates a store.
func NewStore(cfg Config) *Store {
	s := &Store{cfg: cfg.withDefaults(), buckets: make(map[string]*bucket)}
	if reg := s.cfg.Metrics; reg != nil {
		s.met = make(map[string]*telemetry.Histogram, len(storeOps))
		for _, op := range storeOps {
			s.met[op] = reg.Histogram(telemetry.Label("blob_op_ns", "op", op))
		}
		// The accounting counters already exist under s.mu; expose them
		// as render-time gauges instead of maintaining parallel counters
		// on the data path.
		reg.GaugeFunc("blob_bytes_in", func() int64 { return s.Usage().BytesIn })
		reg.GaugeFunc("blob_bytes_out", func() int64 { return s.Usage().BytesOut })
		reg.GaugeFunc("blob_bytes_stored", func() int64 { return s.Usage().BytesStored })
		reg.GaugeFunc("blob_requests", func() int64 { return s.Usage().Requests() })
	}
	return s
}

// opStart stamps the beginning of an instrumented operation; the zero
// time when the store is uninstrumented (no clock read on that path).
func (s *Store) opStart() time.Time {
	if s.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// opDone records one operation's latency (paired with opStart via defer).
func (s *Store) opDone(op string, start time.Time) {
	if s.met == nil {
		return
	}
	s.met[op].Observe(time.Since(start))
}

// Usage returns a snapshot of accounting counters.
func (s *Store) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage
}

// simulateTransfer sleeps outside the lock for the configured request
// latency plus bandwidth-proportional transfer time.
func (s *Store) simulateTransfer(nBytes int) {
	d := s.cfg.RequestLatency
	if s.cfg.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(nBytes) / s.cfg.BandwidthBytesPerSec * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// CreateBucket registers a bucket. An empty name is rejected before any
// accounting: the request never leaves the client, so it is not billed
// (the same validation-before-billing rule PR 2 established for
// queue.CreateQueue).
func (s *Store) CreateBucket(name string) error {
	if name == "" {
		return errors.New("blob: empty bucket name")
	}
	s.simulateTransfer(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.PutRequests++
	if _, ok := s.buckets[name]; ok {
		return ErrBucketExists
	}
	s.buckets[name] = &bucket{objects: make(map[string]*object)}
	return nil
}

// DeleteBucket removes a bucket and its objects. An empty name is a
// client-side validation error and is not billed.
func (s *Store) DeleteBucket(name string) error {
	if name == "" {
		return ErrNoSuchBucket
	}
	s.simulateTransfer(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.DeleteRequests++
	b, ok := s.buckets[name]
	if !ok {
		return ErrNoSuchBucket
	}
	for _, o := range b.objects {
		s.usage.BytesStored -= int64(len(o.data))
	}
	delete(s.buckets, name)
	return nil
}

// Put writes an object, replacing any existing version. The replaced
// version remains visible to reads inside the consistency window.
// Ingress bytes are counted only for accepted writes: a PUT against a
// missing bucket bills the request but transfers nothing.
func (s *Store) Put(bucketName, key string, data []byte) error {
	defer s.opDone("put", s.opStart())
	s.simulateTransfer(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.PutRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return ErrNoSuchBucket
	}
	s.usage.BytesIn += int64(len(data))
	s.putLocked(b, key, data)
	return nil
}

// putLocked installs a new version of bucket b's key. Caller holds s.mu
// and has billed the request.
func (s *Store) putLocked(b *bucket, key string, data []byte) int64 {
	now := s.cfg.Clock.Now()
	next := int64(1)
	if old, exists := b.objects[key]; exists {
		s.usage.BytesStored -= int64(len(old.data))
		next = old.version + 1
		b.objects[key] = &object{
			data: append([]byte(nil), data...), writtenAt: now,
			prev: old.data, hadPrev: true, version: next,
		}
	} else {
		b.objects[key] = &object{data: append([]byte(nil), data...), writtenAt: now, version: next}
	}
	s.usage.BytesStored += int64(len(data))
	return next
}

// PutIf is a compare-and-swap Put: the write succeeds only when the
// object's current version equals ifVersion (0 = the object must not
// exist yet). It returns the new version on success and
// ErrPreconditionFailed when another writer got there first — the
// conditional-write primitive coordination state machines need from a
// blob store. The request is billed whether or not the precondition
// holds (the service had to evaluate it), but ingress bytes only count
// for accepted writes.
func (s *Store) PutIf(bucketName, key string, data []byte, ifVersion int64) (int64, error) {
	defer s.opDone("put_if", s.opStart())
	s.simulateTransfer(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.PutRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return 0, ErrNoSuchBucket
	}
	cur := int64(0)
	if o, exists := b.objects[key]; exists {
		cur = o.version
	}
	if cur != ifVersion {
		return cur, fmt.Errorf("%w: %s/%s at version %d, expected %d",
			ErrPreconditionFailed, bucketName, key, cur, ifVersion)
	}
	s.usage.BytesIn += int64(len(data))
	return s.putLocked(b, key, data), nil
}

// Append atomically appends data to an object, creating it when absent —
// the append-blob/journal primitive. Appends are strongly consistent
// (an appender has already seen the tail it extends, so serving a stale
// view would violate read-your-writes); each append is one billed PUT.
// It returns the object's new version.
func (s *Store) Append(bucketName, key string, data []byte) (int64, error) {
	defer s.opDone("append", s.opStart())
	s.simulateTransfer(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.PutRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return 0, ErrNoSuchBucket
	}
	s.usage.BytesIn += int64(len(data))
	o, exists := b.objects[key]
	if !exists {
		// writtenAt stays zero so the consistency window never hides an
		// appended object: appends are read-your-writes by contract.
		o = &object{}
		b.objects[key] = o
	}
	o.data = append(o.data, data...)
	o.version++
	// An append publishes the whole tail: no stale prev view is kept and
	// any pending fresh-create window is collapsed.
	o.prev, o.hadPrev = nil, false
	o.writtenAt = time.Time{}
	s.usage.BytesStored += int64(len(data))
	return o.version, nil
}

// Stat returns an object's size and version without transferring it
// (consistent view, billed as one GET like Exists). Like any metadata
// request it still pays the simulated HTTP round trip.
func (s *Store) Stat(bucketName, key string) (size, version int64, err error) {
	defer s.opDone("get", s.opStart())
	s.simulateTransfer(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.GetRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return 0, 0, ErrNoSuchBucket
	}
	o, exists := b.objects[key]
	if !exists {
		return 0, 0, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucketName, key)
	}
	return int64(len(o.data)), o.version, nil
}

// Get reads an object. Inside the consistency window after a Put, the
// read may observe the pre-Put state: ErrNoSuchKey for a fresh object or
// the previous bytes for an overwrite — S3's classic eventual-consistency
// anomalies.
func (s *Store) Get(bucketName, key string) ([]byte, error) {
	defer s.opDone("get", s.opStart())
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.usage.GetRequests++
		s.mu.Unlock()
		s.simulateTransfer(0)
		return nil, ErrNoSuchBucket
	}
	s.usage.GetRequests++
	o, exists := b.objects[key]
	if !exists {
		s.mu.Unlock()
		s.simulateTransfer(0)
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucketName, key)
	}
	var out []byte
	if s.cfg.ConsistencyWindow > 0 && s.cfg.Clock.Now().Sub(o.writtenAt) < s.cfg.ConsistencyWindow {
		// Stale view.
		if !o.hadPrev {
			s.usage.NotFoundReads++
			s.mu.Unlock()
			s.simulateTransfer(0)
			return nil, fmt.Errorf("%w: %s/%s (eventual consistency)", ErrNoSuchKey, bucketName, key)
		}
		s.usage.StaleReads++
		out = append([]byte(nil), o.prev...)
	} else {
		out = append([]byte(nil), o.data...)
	}
	s.usage.BytesOut += int64(len(out))
	s.mu.Unlock()
	s.simulateTransfer(len(out))
	return out, nil
}

// GetConsistent reads the latest version regardless of the consistency
// window (the moral equivalent of retrying until the write is visible).
func (s *Store) GetConsistent(bucketName, key string) ([]byte, error) {
	defer s.opDone("get", s.opStart())
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.usage.GetRequests++
		s.mu.Unlock()
		return nil, ErrNoSuchBucket
	}
	s.usage.GetRequests++
	o, exists := b.objects[key]
	if !exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucketName, key)
	}
	out := append([]byte(nil), o.data...)
	s.usage.BytesOut += int64(len(out))
	s.mu.Unlock()
	s.simulateTransfer(len(out))
	return out, nil
}

// GetRange reads up to n bytes of an object starting at byte offset off
// (consistent view — range reads exist for journal tailing, where a
// stale tail would re-deliver entries the reader already folded). n < 0
// reads to the end. It returns the requested slice plus the object's
// current total size, so a tailing reader can detect truncation: a size
// below its consumed offset means the object was rewritten underneath
// it. An offset at or past the end returns no data and no error. Billed
// as one GET; egress counts only the bytes actually returned.
func (s *Store) GetRange(bucketName, key string, off, n int64) (data []byte, size int64, err error) {
	defer s.opDone("get", s.opStart())
	if off < 0 {
		return nil, 0, fmt.Errorf("blob: negative range offset %d", off)
	}
	s.mu.Lock()
	s.usage.GetRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		s.simulateTransfer(0)
		return nil, 0, ErrNoSuchBucket
	}
	o, exists := b.objects[key]
	if !exists {
		s.mu.Unlock()
		s.simulateTransfer(0)
		return nil, 0, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucketName, key)
	}
	size = int64(len(o.data))
	if off < size {
		end := size
		if n >= 0 && off+n < end {
			end = off + n
		}
		data = append([]byte(nil), o.data[off:end]...)
	}
	s.usage.BytesOut += int64(len(data))
	s.mu.Unlock()
	s.simulateTransfer(len(data))
	return data, size, nil
}

// Delete removes an object. Deleting a missing key is not an error,
// matching S3.
func (s *Store) Delete(bucketName, key string) error {
	defer s.opDone("delete", s.opStart())
	s.simulateTransfer(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.DeleteRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return ErrNoSuchBucket
	}
	if o, exists := b.objects[key]; exists {
		s.usage.BytesStored -= int64(len(o.data))
		delete(b.objects, key)
	}
	return nil
}

// List returns keys in a bucket with the given prefix, sorted.
func (s *Store) List(bucketName, prefix string) ([]string, error) {
	defer s.opDone("list", s.opStart())
	s.simulateTransfer(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.ListRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, ErrNoSuchBucket
	}
	var keys []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Exists reports whether a key currently exists (consistent view). It
// pays the simulated round trip like every other request.
func (s *Store) Exists(bucketName, key string) (bool, error) {
	defer s.opDone("get", s.opStart())
	s.simulateTransfer(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.GetRequests++
	b, ok := s.buckets[bucketName]
	if !ok {
		return false, ErrNoSuchBucket
	}
	_, exists := b.objects[key]
	return exists, nil
}
