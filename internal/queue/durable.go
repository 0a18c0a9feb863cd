// Durability: opt-in per-shard journaling over internal/journal.
//
// A queue shard is one state machine whose transitions are journal
// records (queue.go: plan → append → apply). This file is what a durable
// shard adds around that: with Config.Durability set, Service.commit
// appends each planned record — create/delete queue, send, transfer,
// receive, delete, visibility change, purge; one binary record in one
// journal frame and one blob append per billed call, batches included
// (layout in durcodec.go) — BEFORE applying it, so an operation
// acknowledged to a caller is an operation a restarted or replicated
// service will reproduce. Recovery applies the same records read back:
// Recover loads the journal's snapshot epoch plus the records appended
// since and rebuilds exact queue state — depths, delivery counts, live
// receipt handles, in-flight leases to the nanosecond, delivery order —
// mirroring Broker.Recover. A Follower does that continuously against a
// primary's journal, which is what shard failover promotes. There is no
// second transition function to keep equal to the first: the live
// commit, Recover, the follower's tail fold and its per-epoch rebuild
// all end in Service.applyLocked, through one encoder and one decoder.
// DumpJournal (`queuerouter -dump-journal`) prints a journal as JSON
// lines for a human to read.
//
// What is NOT journaled: lease expiry (a record that carries a time
// releases what has lapsed by then, a live service whenever it looks,
// and expireLocked lands them identically either way), long-poll
// wake-ups, and the rng position — delivery-order randomness restarts
// at the configured seed after recovery, so post-recovery shuffle order
// may differ from an uncrashed run; the queue contract never promised
// ordering.
//
// Costs: the record is encoded into a pooled buffer and appended under
// the per-queue lock, so durable throughput is bounded by encoding plus
// the blob store's append path, and a record is its ids and raw bodies
// plus a few bytes of framing; the `queuedurable` paperbench
// experiment measures the gap to an ephemeral service. Snapshots (every
// SnapshotEvery records) briefly quiesce all journaled operations via an
// RWMutex writer acquisition. A record or snapshot that does not decode
// — damage, or a layout from a newer build — is journal.ErrCorrupt, and
// a Follower that hits one keeps it (Err) rather than going quiet.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/codec"
	"repro/internal/journal"
)

// Durability configures the journal behind a durable Service. All
// fields except SnapshotEvery are required.
type Durability struct {
	// Store is the blob store holding the journal (the same store the
	// broker journals to, typically).
	Store *blob.Store
	// Bucket and Key name the journal object; each shard needs its own
	// Key. The bucket is created idempotently by Recover.
	Bucket string
	Key    string
	// SnapshotEvery bounds recovery replay: after this many journaled
	// records the full queue state is snapshotted and the journal
	// truncated (journal.Log.Snapshot). Default 4096; negative disables
	// compaction.
	SnapshotEvery int
}

// ErrNotRecovered rejects operations on a durable service whose
// Recover was never called: appending to a journal that may already
// hold a previous incarnation's records would corrupt it.
var ErrNotRecovered = errors.New("queue: durable service used before Recover")

// ErrHalted is returned by every operation after Halt: the service is
// simulating a killed process.
var ErrHalted = errors.New("queue: service halted")

// durRecord is one journal record — one mutating API call, batches
// included. Unused fields stay zero per op and are not encoded. The json
// tags serve DumpJournal only.
type durRecord struct {
	Op durOp  `json:"op"`
	Q  string `json:"q,omitempty"`
	// T is the service clock at the operation, the fold's time base for
	// lease placement (opReceive, opVisibility); zero on other ops, where
	// DumpJournal leaves it out.
	T time.Time `json:"t"`

	// opSend: assigned message IDs, bodies, prior delivery counts
	// (transfers; empty for ordinary sends), and the service's id
	// sequence after the batch. Other ops name their messages in IDs.
	IDs    []string `json:"ids,omitempty"`
	Bodies [][]byte `json:"bodies,omitempty"`
	Recvs  []int    `json:"recvs,omitempty"`
	NextID int      `json:"next,omitempty"`

	// opReceive: per delivery — target message ID (in IDs), the lease
	// expiry, and whether this was a duplicate delivery (message stays
	// visible). The receipt is the ID and the count the fold reaches.
	Vis []time.Time `json:"vis,omitempty"`
	Dup []bool      `json:"dup,omitempty"`
}

// reset empties r for a record of kind op on queue q, keeping its
// slices' storage so planning and decoding into it allocate only what
// they keep. Every field is named: assigning a whole durRecord over the
// per-queue scratch costs a bulk write barrier on every call.
func (r *durRecord) reset(op durOp, q string) {
	r.Op, r.Q, r.T, r.NextID = op, q, time.Time{}, 0
	r.IDs, r.Bodies, r.Recvs = r.IDs[:0], r.Bodies[:0], r.Recvs[:0]
	r.Vis, r.Dup = r.Vis[:0], r.Dup[:0]
}

// identity reports a record that would change nothing — a receive that
// found no message, a batch delete whose receipts were all stale. Such a
// record is never journaled.
func (r *durRecord) identity() bool {
	return (r.Op == opReceive || r.Op == opDelete) && len(r.IDs) == 0
}

// durableState carries a Service's journaling state.
type durableState struct {
	log       journal.Log
	snapEvery int
	// mu serializes journal appends (readers) against snapshot capture
	// + truncation (the writer). Lock order: dur.mu strictly before
	// s.mu / q.mu.
	mu sync.RWMutex
	// appends counts records since the last snapshot. Appenders run
	// concurrently under mu.RLock, hence atomic.
	appends atomic.Int64
	// ready is set by Recover; appends before it error.
	ready bool
}

func newDurableState(d *Durability) *durableState {
	every := d.SnapshotEvery
	if every == 0 {
		every = 4096
	}
	return &durableState{
		log:       journal.Log{Store: d.Store, Bucket: d.Bucket, Key: d.Key},
		snapEvery: every,
	}
}

// lock takes the append-side lock and checks the journal is claimed;
// Service.commit brackets every journaled mutation with lock/unlock.
func (d *durableState) lock() error {
	d.mu.RLock()
	if !d.ready {
		d.mu.RUnlock()
		return ErrNotRecovered
	}
	return nil
}

func (d *durableState) unlock() { d.mu.RUnlock() }

// append journals one record. Caller holds d.mu.RLock (via lock) and
// whatever state lock covers the mutation the record describes; the
// record must only be applied if append returns nil.
func (d *durableState) append(rec *durRecord) error {
	if err := d.log.AppendRecord(rec); err != nil {
		return err
	}
	d.appends.Add(1)
	return nil
}

// due reports whether a snapshot is due. Checked after unlock so the
// snapshot (an exclusive acquisition) is never attempted under RLock.
func (d *durableState) due() bool {
	return d.snapEvery > 0 && d.appends.Load() >= int64(d.snapEvery)
}

// snapshot captures the whole service state and truncates the journal
// to it. Exclusive: waits out in-flight journaled operations, blocks
// new ones for the capture duration. Best-effort — a failed snapshot
// leaves a longer, complete journal.
func (s *Service) snapshot() {
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	if !s.dur.due() {
		return // another caller snapshotted first
	}
	bp := codec.GetBuf()
	defer codec.PutBuf(bp)
	*bp = s.captureState().appendTo(*bp)
	if err := s.dur.log.Snapshot(*bp); err != nil {
		return
	}
	s.dur.appends.Store(0)
}

// --- Snapshot format --------------------------------------------------

type durSnapshot struct {
	LastID int        `json:"last_id"` // the id sequence, live queues or none
	Queues []durQueue `json:"queues"`
}

type durQueue struct {
	Name string `json:"name"`
	// Visible is in delivery order, front first; Inflight is in heap
	// order (re-heapified on install).
	Visible  []durMsg `json:"visible,omitempty"`
	Inflight []durMsg `json:"inflight,omitempty"`
}

type durMsg struct {
	ID        string    `json:"id"`
	Body      []byte    `json:"body"`
	Receives  int       `json:"receives,omitempty"`
	Delivered bool      `json:"delivered,omitempty"`
	VisAt     time.Time `json:"vis_at,omitempty"`
}

func encodeMsg(m *message) durMsg {
	return durMsg{ID: m.id, Body: m.body, Receives: m.receives, Delivered: m.delivered, VisAt: m.visibleAt}
}

// captureState renders the full service state. Caller holds dur.mu
// exclusively, so no journaled mutation is concurrent; per-queue locks
// are still taken against non-journaled readers.
func (s *Service) captureState() *durSnapshot {
	s.mu.RLock()
	names := make([]string, 0, len(s.queues))
	for n := range s.queues {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	snap := &durSnapshot{LastID: int(s.lastID.Load()), Queues: make([]durQueue, 0, len(names))}
	for _, name := range names {
		q, err := s.getQueue(name)
		if err != nil {
			continue
		}
		q.mu.Lock()
		dq := durQueue{Name: name}
		for e := q.visible.Front(); e != nil; e = e.Next() {
			dq.Visible = append(dq.Visible, encodeMsg(e.Value.(*message)))
		}
		for _, m := range q.inflight {
			dq.Inflight = append(dq.Inflight, encodeMsg(m))
		}
		q.mu.Unlock()
		snap.Queues = append(snap.Queues, dq)
	}
	return snap
}

// --- Recovery ---------------------------------------------------------

// Recover claims the configured journal and rebuilds this service's
// state from it: the current snapshot epoch plus a fold over every
// record appended since. It must be called (once) before the service
// takes traffic; a fresh deployment creates the journal here, CAS-
// guarded so two services configured with one key cannot both own it.
// Implements the Recoverer capability.
func (s *Service) Recover() error {
	if s.dur == nil {
		return errors.New("queue: Recover requires Config.Durability")
	}
	d := s.dur
	if d.log.Store == nil || d.log.Bucket == "" || d.log.Key == "" {
		return errors.New("queue: Durability needs Store, Bucket, and Key")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ready {
		return errors.New("queue: Recover called twice")
	}
	if err := d.log.Store.CreateBucket(d.log.Bucket); err != nil && !errors.Is(err, blob.ErrBucketExists) {
		return fmt.Errorf("queue: journal bucket: %w", err)
	}
	v, err := d.log.Load()
	if errors.Is(err, blob.ErrNoSuchKey) {
		if err := d.log.Create((&durRecord{Op: opGenesis}).AppendTo(nil)); err != nil {
			return err
		}
		d.ready = true
		return nil
	}
	if err != nil {
		return err
	}
	if err := s.installView(v); err != nil {
		return err
	}
	d.appends.Store(int64(len(v.Entries)))
	d.ready = true
	return nil
}

// installView resets the service to a journal view: snapshot state,
// then a replay of the tail records. Caller guarantees exclusive use.
func (s *Service) installView(v *journal.View) error {
	s.mu.Lock()
	s.queues = make(map[string]*queueState)
	s.mu.Unlock()
	s.lastID.Store(0)
	if v.Snapshot != nil {
		snap, err := decodeSnapshot(v.Snapshot)
		if err != nil {
			return corrupt(fmt.Sprintf("queue: journal snapshot of epoch %d", v.Seq), err)
		}
		if err := s.installSnapshot(snap); err != nil {
			return err
		}
	}
	return s.foldEntries(v.Entries)
}

// foldEntries decodes and applies journal records in order — the one
// path from journal bytes to state, shared by Recover, the follower's
// per-epoch rebuild and its tail fold, and ending in the same
// applyLocked a live commit ends in. It stops at the first record that
// does not decode (journal.ErrCorrupt) or does not fit the state folded
// so far.
func (s *Service) foldEntries(entries [][]byte) error {
	var rec durRecord
	for i, e := range entries {
		if err := rec.decode(e); err != nil {
			return corrupt(fmt.Sprintf("queue: journal record %d", i+1), err)
		}
		if rec.Op == opGenesis {
			continue
		}
		err := s.withQueue(rec.Op, rec.Q, func(q *queueState) error { return s.applyLocked(q, &rec) })
		if err != nil {
			// %v: a journal that does not fit is not the API's ErrNoSuchQueue.
			return fmt.Errorf("queue: journal record %d: %s on queue %q: %v", i+1, rec.Op, rec.Q, err)
		}
	}
	return nil
}

func (s *Service) installSnapshot(snap *durSnapshot) error {
	s.lastID.Store(int64(snap.LastID))
	for _, dq := range snap.Queues {
		s.mu.Lock()
		if _, ok := s.queues[dq.Name]; ok {
			s.mu.Unlock()
			return fmt.Errorf("queue: snapshot repeats queue %q", dq.Name)
		}
		q := s.newQueueState(dq.Name)
		s.queues[dq.Name] = q
		s.mu.Unlock()
		q.mu.Lock()
		for i := range dq.Visible {
			installMsgLocked(q, &dq.Visible[i], false)
		}
		for i := range dq.Inflight {
			installMsgLocked(q, &dq.Inflight[i], true)
		}
		heap.Init(&q.inflight)
		q.mu.Unlock()
	}
	return nil
}

// installMsgLocked materializes one snapshot message. Caller holds q.mu
// and re-heapifies inflight afterwards.
func installMsgLocked(q *queueState, dm *durMsg, inflight bool) {
	m := &message{
		id:        dm.ID,
		body:      append([]byte(nil), dm.Body...),
		receives:  dm.Receives,
		delivered: dm.Delivered,
		visibleAt: dm.VisAt,
		heapIdx:   -1,
	}
	if inflight {
		m.heapIdx = len(q.inflight)
		q.inflight = append(q.inflight, m)
	} else {
		m.elem = q.visible.PushBack(m)
	}
	q.byID[m.id] = m
}

// --- Follower ---------------------------------------------------------

// A Follower replays a primary's journal into a standby Service with
// bounded lag: within one snapshot epoch it folds only the journal
// tail it has not yet consumed (a cheap Head poll plus a range read);
// when the primary compacts, it rebuilds from the new snapshot — whose
// replay cost the primary's SnapshotEvery bounds. Promote turns the
// standby into the serving primary: it folds the final tail, attaches
// the journal for writing, and returns the Service — receipts, delivery
// counts, and leases all live. The caller must know the old primary is
// dead first (failover does, via health checks): two writers on one
// journal is the one corruption this package cannot detect for you.
type Follower struct {
	svc *Service

	mu  sync.Mutex
	seq int64
	off int64
	// records counts journal records folded in the current epoch; it
	// seeds the promoted service's compaction counter.
	records int
	// err is the failure of the latest catch-up (nil once one succeeds)
	// and fails how many have failed in a row: a standby that cannot read
	// its primary's journal says so instead of silently falling behind.
	err      error
	fails    int
	promoted bool
	stop     chan struct{}
	done     chan struct{}
}

// NewFollower builds a standby service over the primary's journal
// config. The standby must not be handed traffic before Promote.
func NewFollower(cfg Config) (*Follower, error) {
	if cfg.Durability == nil || cfg.Durability.Store == nil || cfg.Durability.Bucket == "" || cfg.Durability.Key == "" {
		return nil, errors.New("queue: NewFollower needs Config.Durability with Store, Bucket, and Key")
	}
	return &Follower{svc: NewService(cfg)}, nil
}

// staleEpoch is no journal's epoch: a follower whose seq is staleEpoch
// rebuilds from the full log on its next catch-up.
const staleEpoch = -1

// CatchUp folds everything the primary has journaled since the last
// call, returning the number of records applied. A failure is also kept
// for Err.
func (f *Follower) CatchUp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return 0, errors.New("queue: follower already promoted")
	}
	return f.catchUpLocked()
}

// catchUpLocked is one catch-up attempt with its outcome recorded: the
// first failure of a kind is logged, repeats only counted. Caller holds
// f.mu.
func (f *Follower) catchUpLocked() (int, error) {
	n, err := f.foldNewLocked()
	if err == nil {
		f.err, f.fails = nil, 0
		return n, nil
	}
	if f.err == nil || f.err.Error() != err.Error() {
		d := f.svc.dur.log
		log.Printf("queue: follower of %s/%s cannot catch up: %v", d.Bucket, d.Key, err)
	}
	f.err = err
	f.fails++
	return n, err
}

// Err reports why the follower is not advancing: the latest catch-up's
// failure, wrapped with how many have failed in a row, or nil when the
// latest one succeeded. A journal the follower cannot decode surfaces
// here as journal.ErrCorrupt.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.errLocked()
}

func (f *Follower) errLocked() error {
	if f.err == nil {
		return nil
	}
	return fmt.Errorf("queue: follower stalled (%d catch-ups failed): %w", f.fails, f.err)
}

func (f *Follower) foldNewLocked() (int, error) {
	d := f.svc.dur
	seq, size, err := d.log.Head()
	if errors.Is(err, blob.ErrNoSuchKey) || errors.Is(err, blob.ErrNoSuchBucket) {
		return 0, nil // primary has not created the journal yet
	}
	if err != nil {
		return 0, err
	}
	if seq != f.seq || size < f.off {
		// New snapshot epoch (or a rewritten log): rebuild wholesale.
		// The primary's compaction cadence bounds this fold.
		return f.rebuildLocked()
	}
	if size == f.off {
		return 0, nil
	}
	tail, newSize, err := d.log.Tail(f.off)
	if err != nil {
		return 0, err
	}
	// The Head read above and the Tail range read are two requests, so a
	// primary compaction can slip between them: the log is truncated to
	// a new epoch, then appends regrow it past f.off — and the tail just
	// read starts mid-record in the NEW epoch. Epoch seqs strictly
	// increase, so re-reading the header detects it; rebuild instead of
	// folding misaligned bytes.
	seq2, _, err := d.log.Head()
	if err != nil {
		return 0, err
	}
	if seq2 != seq {
		return f.rebuildLocked()
	}
	entries, err := journal.SplitEntries(tail)
	if err != nil {
		return 0, err
	}
	if err := f.svc.foldEntries(entries); err != nil {
		// Records before the bad one are applied but f.off is not past
		// them: only a rebuild can retry without folding them twice.
		f.seq = staleEpoch
		return 0, err
	}
	f.off = newSize
	f.records += len(entries)
	return len(entries), nil
}

// rebuildLocked replaces the standby's state with a full load of the
// journal's current view. Caller holds f.mu.
func (f *Follower) rebuildLocked() (int, error) {
	v, err := f.svc.dur.log.Load()
	if err != nil {
		return 0, err
	}
	if err := f.svc.installView(v); err != nil {
		f.seq = staleEpoch // the standby holds a partial fold
		return 0, err
	}
	f.seq, f.off = v.Seq, v.Size
	f.records = len(v.Entries)
	return len(v.Entries), nil
}

// Start polls CatchUp every interval until Close or Promote. A failed
// poll is retried by the next one; Err reports it meanwhile.
func (f *Follower) Start(interval time.Duration) {
	f.mu.Lock()
	if f.stop != nil || f.promoted {
		f.mu.Unlock()
		return
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	stop, done := f.stop, f.done
	f.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = f.CatchUp() // a failure is kept for Err and logged there
			}
		}
	}()
}

// Close stops the polling loop (if Start was used).
func (f *Follower) Close() {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop, f.done = nil, nil
	f.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Lag reports how many journal bytes the primary is ahead of this
// follower right now (one cheap Head read). When the latest catch-up
// failed the lag is not about to shrink, and Err's error comes with it.
func (f *Follower) Lag() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq, size, err := f.svc.dur.log.Head()
	if err != nil {
		return 0, err
	}
	if seq != f.seq {
		return size, f.errLocked() // epoch behind: everything since the snapshot
	}
	return size - f.off, f.errLocked()
}

// Promote finishes replication and returns the standby as the serving
// service: one final fold, then the journal is attached for writing so
// the promoted service keeps the durability chain going under the same
// key. Only call once the old primary is confirmed dead.
func (f *Follower) Promote() (*Service, error) {
	f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, errors.New("queue: follower promoted twice")
	}
	if _, err := f.catchUpLocked(); err != nil {
		return nil, fmt.Errorf("queue: promote refused: %w", f.errLocked())
	}
	f.promoted = true
	d := f.svc.dur
	d.mu.Lock()
	// Seed the compaction counter with the journal tail already behind
	// us so the promoted service snapshots on the primary's cadence.
	d.appends.Store(int64(f.records))
	d.ready = true
	d.mu.Unlock()
	return f.svc, nil
}

// PromoteAPI is Promote with an interface return — the exact signature
// the shard router's standby registration wants (SetStandby), kept
// separate so a nil *Service error case never leaks a typed nil into
// the interface.
func (f *Follower) PromoteAPI() (API, error) {
	s, err := f.Promote()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Service returns the standby service for inspection (depths, etc.).
// It must not be handed traffic before Promote.
func (f *Follower) Service() *Service { return f.svc }
