// Package queue simulates the cloud queue services of the paper — Amazon
// SQS and Azure Queue — with their distinguishing semantics: at-least-once
// delivery, no ordering guarantee, a configurable per-message visibility
// timeout (read messages are hidden until the timeout expires and then
// reappear unless deleted), occasional duplicate delivery, and
// request-count accounting for the pricing model.
//
// The Classic Cloud framework builds its entire fault-tolerance story on
// these semantics, exactly as Section 2.1.3 describes: a worker deletes a
// task message only after completing it, so an un-deleted task reappears
// and is re-executed by another worker.
//
// # Concurrency model
//
// The service mutex guards only the queue namespace (create / delete /
// list). Every queue carries its own lock, so tenants sharing one service
// contend only with traffic on their own queue — the multi-tenant broker
// deployment stops serializing unrelated jobs through one mutex.
//
// # Indexed message store
//
// Each queue keeps three structures, all bounded by its live (undeleted)
// messages: a delivery-ordered list of visible messages, a min-heap of
// in-flight messages keyed by the time they become visible again, and a
// receipt-handle index. DeleteMessage and ChangeVisibility are O(log n)
// by receipt; ReceiveMessage touches at most ShuffleWindow list nodes;
// ApproximateCount reads the structure sizes. Deleted messages are
// removed from all three structures immediately (compaction), so memory
// and per-operation cost track live messages, not messages ever sent.
//
// # Long polling and batches
//
// ReceiveMessageWait blocks until a message is visible or the wait time
// elapses, waking on sends, visibility releases, in-flight expiries, and
// FakeClock advances — replacing busy poll loops. The batch calls
// (SendMessageBatch, ReceiveMessageBatch, DeleteMessageBatch) move up to
// MaxBatch messages and are billed as one API request, the SQS batch
// pricing the paper's cost tables assume one-request-per-message for.
package queue

import (
	"container/heap"
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Clock abstracts time so tests can drive visibility timeouts without
// sleeping.
type Clock interface {
	Now() time.Time
}

// AdvanceNotifier is optionally implemented by clocks whose time jumps
// discretely (FakeClock). Long-polling receivers select on AdvanceCh so a
// test advancing the clock wakes them immediately instead of waiting out
// a real-time timer.
type AdvanceNotifier interface {
	// AdvanceCh returns a channel closed at the next clock advance.
	AdvanceCh() <-chan struct{}
}

// RealClock reads the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests and simulations.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
	adv chan struct{}
}

// NewFakeClock starts a fake clock at t.
func NewFakeClock(t time.Time) *FakeClock {
	return &FakeClock{now: t, adv: make(chan struct{})}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and wakes long-poll waiters.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	close(c.adv)
	c.adv = make(chan struct{})
	c.mu.Unlock()
}

// AdvanceCh implements AdvanceNotifier.
func (c *FakeClock) AdvanceCh() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adv
}

// Message is one queued item as seen by a receiver.
//
// Body aliases the service's stored copy (made once at SendMessage);
// receivers must treat it as read-only. Mutating it corrupts future
// redeliveries of the same message. It stays valid for as long as the
// receiver holds it, whatever becomes of the message. Remote consumers
// get their own copy — the HTTP and wire transports both copy bodies at
// the protocol boundary.
type Message struct {
	ID            string
	Body          []byte
	ReceiptHandle string
	Receives      int // delivery count including this one
}

// MaxBatch is the per-call message cap of the batch APIs, matching SQS.
const MaxBatch = 10

// Config tunes service behaviour.
type Config struct {
	// DefaultVisibility applies when ReceiveMessage passes 0.
	DefaultVisibility time.Duration
	// DuplicateProb injects duplicate deliveries (eventual consistency /
	// at-least-once artifacts). 0 disables.
	DuplicateProb float64
	// ShuffleWindow controls how unordered delivery is: a receive picks
	// uniformly among the first ShuffleWindow visible messages. 1 gives
	// FIFO; larger values emulate SQS's weak ordering. Default 4.
	ShuffleWindow int
	// Seed for the delivery-order randomness. Each queue derives its own
	// deterministic stream from (Seed, queue name).
	Seed int64
	// Clock defaults to RealClock.
	Clock Clock
	// ServiceTime simulates the finite request-processing capacity of
	// one queue-service process: every billed call occupies one of
	// ServiceConcurrency request slots for this long before executing.
	// 0 (the default) disables the simulation entirely. This is the
	// queue-side analogue of blob.Config.RequestLatency and what makes a
	// sharded deployment measurable — N services have N times the
	// request capacity of one. The charge is real wall-clock time
	// (time.Sleep), deliberately outside the Clock abstraction: it
	// throttles actual concurrent callers in throughput benchmarks.
	// Do not combine it with FakeClock — fake time never advances
	// through it, it only makes every call slow.
	ServiceTime time.Duration
	// ServiceConcurrency is the number of simulated request processors
	// when ServiceTime > 0 (default 8).
	ServiceConcurrency int
	// Metrics, when set, makes the service self-measuring: per-op
	// latency histograms (queue_op_ns), per-queue request rates
	// (queue_requests), and backlog-depth gauges (queue_backlog_*) are
	// registered there. Nil (the default) keeps the hot path free of
	// clock reads — instrumentation costs nothing unless wired.
	Metrics *telemetry.Registry
	// MetricsName labels this service's series (svc="name") so several
	// services sharing one registry — e.g. the local shards of a router —
	// stay distinguishable. Empty omits the label.
	MetricsName string
	// Durability, when set, journals every accepted mutation to a
	// blob-store journal before committing it, enabling Recover (fold
	// the journal back into exact state after a crash) and Follower
	// (replicate it onto a standby). Recover must be called before the
	// service takes traffic. Nil — the default — keeps the service
	// purely in-memory with no hot-path cost beyond a nil check. See
	// durable.go.
	Durability *Durability
}

func (c Config) withDefaults() Config {
	if c.DefaultVisibility == 0 {
		c.DefaultVisibility = 30 * time.Second
	}
	if c.ShuffleWindow == 0 {
		c.ShuffleWindow = 4
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.ServiceConcurrency == 0 {
		c.ServiceConcurrency = 8
	}
	return c
}

// RequestCounter implements the billing-attribution model shared by
// every queue.API implementation that bills its own traffic (Service,
// shard.Router): a total request count plus per-queue attribution
// (name → *atomic.Int64) that survives queue deletion, so a
// multi-tenant deployment can bill each tenant its own traffic.
type RequestCounter struct {
	total   atomic.Int64
	byQueue sync.Map
}

// Count bills one call addressed to queueName. A batch call counts once
// regardless of how many messages it moves.
func (c *RequestCounter) Count(queueName string) {
	c.total.Add(1)
	v, ok := c.byQueue.Load(queueName)
	if !ok {
		v, _ = c.byQueue.LoadOrStore(queueName, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// CountUnattributed bills one service-wide call (e.g. ListQueues) that
// is not addressed to any queue.
func (c *RequestCounter) CountUnattributed() { c.total.Add(1) }

// Total returns the billed calls so far.
func (c *RequestCounter) Total() int64 { return c.total.Load() }

// For returns the billed calls addressed to one queue.
func (c *RequestCounter) For(queueName string) int64 {
	if v, ok := c.byQueue.Load(queueName); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// Service is a namespace of queues, the moral equivalent of one SQS
// account endpoint.
//
// It is one state machine. A mutating call plans a journal record —
// reading state under the queue's lock, changing none of it; a durable
// service appends the record; applyLocked applies it. Recover and
// Follower apply the same records read back from the journal, so a live
// service and a fold of its journal are equal by construction, and an
// ephemeral service runs the same plan and the same applier with the
// append left out. Three things stay outside the records: lease expiry
// (released in a fixed order whenever anyone looks, so it does not
// matter when), long-poll wake-ups, and the position of each queue's
// rng.
type Service struct {
	cfg Config
	// mu guards only the queue namespace; message operations take the
	// per-queue lock instead.
	mu     sync.RWMutex
	queues map[string]*queueState
	// billing counts every service call for the pricing model.
	billing RequestCounter
	// slots throttles billed calls to cfg.ServiceConcurrency concurrent
	// requests of cfg.ServiceTime each; nil when the capacity simulation
	// is off.
	slots chan struct{}
	// met holds this service's telemetry instruments; nil when
	// cfg.Metrics is unset, and every instrumentation site checks that
	// first so the uninstrumented path pays one branch, not a clock read.
	met *serviceMetrics
	// dur is the journaling state behind Config.Durability; nil for
	// ephemeral services.
	dur *durableState
	// halted flips once at Halt; haltCh is closed then so blocked long
	// polls wake and fail.
	halted atomic.Bool
	haltCh chan struct{}
}

// serviceOps is the set of message-path operations that get their own
// latency histogram. Receive latency includes any long-poll wait the
// caller asked for — a blocked poll is real request latency from the
// service's point of view.
var serviceOps = []string{
	"send", "send_batch", "receive", "delete", "delete_batch",
	"change_visibility", "transfer", "count", "purge",
}

// serviceMetrics is a Service's instrument set, created once at
// NewService so the request path never touches the registry lock.
type serviceMetrics struct {
	reg  *telemetry.Registry
	name string // svc label, may be empty
	ops  map[string]*telemetry.Histogram
	// rates caches per-queue request-rate instruments (name → *Rate),
	// mirroring RequestCounter's per-queue index.
	rates sync.Map
}

func newServiceMetrics(reg *telemetry.Registry, svc string) *serviceMetrics {
	m := &serviceMetrics{reg: reg, name: svc, ops: make(map[string]*telemetry.Histogram, len(serviceOps))}
	for _, op := range serviceOps {
		m.ops[op] = reg.Histogram(m.series("queue_op_ns", "op", op))
	}
	return m
}

// series builds an instrument name, folding in the svc label when set.
func (m *serviceMetrics) series(base, key, value string) string {
	if m.name != "" {
		if key == "" {
			return fmt.Sprintf("%s{svc=%q}", base, m.name)
		}
		return fmt.Sprintf("%s{svc=%q,%s=%q}", base, m.name, key, value)
	}
	if key == "" {
		return base
	}
	return telemetry.Label(base, key, value)
}

// markQueue bumps the per-queue request rate.
func (m *serviceMetrics) markQueue(queueName string) {
	v, ok := m.rates.Load(queueName)
	if !ok {
		v, _ = m.rates.LoadOrStore(queueName, m.reg.Rate(m.series("queue_requests", "queue", queueName)))
	}
	v.(*telemetry.Rate).Mark(1)
}

// opStart stamps the beginning of an instrumented operation; the zero
// time when the service is uninstrumented.
func (s *Service) opStart() time.Time {
	if s.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// opDone records one operation's latency (paired with opStart, usually
// via defer so the args are stamped on entry).
func (s *Service) opDone(op string, start time.Time) {
	if s.met == nil {
		return
	}
	s.met.ops[op].Observe(time.Since(start))
}

// message is the stored form of one queued item. A live message is in
// exactly one of the queue's two delivery structures: the visible list
// (elem != nil) or the in-flight heap (heapIdx >= 0).
type message struct {
	id        string
	body      []byte
	visibleAt time.Time
	receives  int
	receipt   string
	elem      *list.Element // position in queueState.visible, nil if in flight
	heapIdx   int           // position in queueState.inflight, -1 if visible
}

type queueState struct {
	name string

	mu  sync.Mutex
	rng *rand.Rand
	// visible holds deliverable messages in delivery order: arrivals at
	// the back, expired redeliveries at the front (approximating their
	// original arrival position).
	visible *list.List
	// inflight orders leased messages by the time they become visible
	// again, so expiry processing pops only what actually expired.
	inflight inflightHeap
	// byReceipt indexes live messages by their latest receipt handle for
	// O(log n) DeleteMessage / ChangeVisibility.
	byReceipt map[string]*message
	// byID indexes live messages by message ID — the stable name
	// journal records refer to across restarts, where receipt handles
	// rotate per delivery.
	byID   map[string]*message
	nextID int
	// notify is closed and replaced to broadcast "a message may have
	// become visible" to long-poll waiters.
	notify chan struct{}
	// dead is set when the queue is deleted so blocked receivers fail
	// with ErrNoSuchQueue instead of waiting forever.
	dead bool
	// rec is the scratch record every commit on this queue plans into and
	// applies from, reused under mu like a fold's decode target.
	rec durRecord
}

// inflightHeap is a min-heap of in-flight messages by visibleAt. Leases
// taken by one batch expire together, so ties are broken by id — later
// ids first, which hands a batch back to the front of the visible list
// in its original order — making the order total: what pops next never
// depends on how the heap happens to be laid out.
type inflightHeap []*message

func (h inflightHeap) Len() int { return len(h) }
func (h inflightHeap) Less(i, j int) bool {
	if c := h[i].visibleAt.Compare(h[j].visibleAt); c != 0 {
		return c < 0
	}
	return h[i].id > h[j].id
}
func (h inflightHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *inflightHeap) Push(x any)   { m := x.(*message); m.heapIdx = len(*h); *h = append(*h, m) }
func (h *inflightHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	m.heapIdx = -1
	*h = old[:n-1]
	return m
}

// Errors returned by the service. Consumers must match them with
// errors.Is, never by substring: the HTTP client reconstructs them from
// status codes with extra context wrapped around the sentinel, and the
// shard router relies on errors.Is to tell "queue deleted" apart from
// "message owned by another shard".
var (
	ErrNoSuchQueue = errors.New("queue: no such queue")
	ErrQueueExists = errors.New("queue: queue already exists")
	// ErrStaleReceipt rejects a receipt handle that is not the message's
	// latest lease — the message timed out and was redelivered, or the
	// handle never existed. Only the latest receipt is authoritative,
	// matching SQS.
	ErrStaleReceipt   = errors.New("queue: invalid or stale receipt handle")
	ErrEmptyQueueName = errors.New("queue: empty queue name")
	ErrBatchSize      = fmt.Errorf("queue: batch must hold 1..%d entries", MaxBatch)
	// ErrNotPrivileged rejects a message transfer from a caller without
	// access to the privileged admin surface. Local in-process callers
	// are always trusted (whoever holds the *Service is the operator);
	// the sentinel is produced by the HTTP layer, where the transfer
	// endpoint must be explicitly provisioned with an admin token.
	ErrNotPrivileged = errors.New("queue: message transfer requires the privileged admin surface")
	// ErrBadTransfer rejects a transfer item carrying a negative
	// delivery count.
	ErrBadTransfer = errors.New("queue: transfer receive count must be non-negative")
)

// API is the queue-service surface shared by every implementation: the
// in-process Service, the HTTPClient speaking to a remote service, and
// shard.Router fanning one namespace across many services. Consumers
// (classiccloud, broker) program against this interface, so a
// deployment can swap a single service for a sharded front without
// touching them.
type API interface {
	CreateQueue(name string) error
	DeleteQueue(name string) error
	ListQueues() []string
	SendMessage(queueName string, body []byte) (string, error)
	SendMessageBatch(queueName string, bodies [][]byte) ([]string, error)
	ReceiveMessage(queueName string, visibility time.Duration) (Message, bool, error)
	ReceiveMessageWait(queueName string, visibility, wait time.Duration) (Message, bool, error)
	ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]Message, error)
	DeleteMessage(queueName, receiptHandle string) error
	DeleteMessageBatch(queueName string, receipts []string) ([]error, error)
	ChangeVisibility(queueName, receiptHandle string, d time.Duration) error
	ApproximateCount(queueName string) (visible, inflight int, err error)
	Purge(queueName string) error
	APIRequests() int64
	APIRequestsFor(queueName string) int64
}

// TraceScoper is optionally implemented by API implementations that can
// bind a request/trace ID to their outgoing traffic: HTTPClient injects
// it as the telemetry.TraceHeader on every request, and shard.Router
// threads it through to whichever backend serves the call. WithTrace
// returns a scoped view sharing all state with the receiver — the
// original keeps working untraced, and scoped views are cheap enough to
// create per job or per request. The in-process Service is a terminal
// hop and does not implement it.
type TraceScoper interface {
	WithTrace(traceID string) API
}

// WithTrace returns api bound to trace when the implementation can carry
// one (TraceScoper), and api itself for an empty trace or a terminal hop
// such as the in-process Service. It is the one place a hop decides
// whether the ID travels further.
func WithTrace(api API, trace string) API {
	if trace == "" {
		return api
	}
	if ts, ok := api.(TraceScoper); ok {
		return ts.WithTrace(trace)
	}
	return api
}

// DepthReporter is an optional unbilled diagnostic surface: one queue's
// live depth, read without counting as an API request and without
// mutating delivery state. Stats scrapers prefer it over
// ApproximateCount so observing a backlog does not inflate the billing
// reported next to it; implementations with no unbilled path (a remote
// HTTPClient, where the probe is a real request) simply don't
// implement it.
type DepthReporter interface {
	QueueDepth(queueName string) (visible, inflight int, err error)
}

// TransferItem is one message moved by the privileged transfer API:
// its body plus the delivery count it had already accumulated on its
// source queue. Receives counts deliveries so far — a transferred
// message's next delivery reports Receives+1, exactly as if every
// prior delivery had happened on the destination queue.
type TransferItem struct {
	Body     []byte `json:"body"`
	Receives int    `json:"receives"`
}

// Transferrer is the privileged migration surface, deliberately NOT
// part of API: it lets an operator-level caller (the shard router's
// drain-and-forward migration) enqueue a message that keeps its prior
// delivery count, so moving a queue between shards does not reset
// MaxReceives poison-detection progress. Ordinary producers must use
// SendMessage, which always starts messages at zero deliveries.
// Implemented by *Service (in-process callers are trusted), by
// *HTTPClient carrying an admin token, and by the shard router
// (forwarding to the owning shard), so routers can front routers.
type Transferrer interface {
	// TransferIn enqueues body with `receives` prior deliveries,
	// billed as one request to the destination queue.
	TransferIn(queueName string, body []byte, receives int) (string, error)
	// TransferInBatch enqueues up to MaxBatch items as one billed
	// request. Items are validated before anything is enqueued or
	// billed: one negative receive count rejects the whole batch.
	TransferInBatch(queueName string, items []TransferItem) ([]string, error)
}

// Recoverer is the durability capability: implementations rebuild
// their state from a journal and must do so (once) before taking
// traffic. Implemented by *Service when Config.Durability is set.
type Recoverer interface {
	Recover() error
}

// Pinger is the liveness capability: a probe cheaper than any billed
// call, returning nil while the implementation can serve traffic.
// Shard failover health checks prefer it over real requests.
type Pinger interface {
	Ping() error
}

// CapabilitySet names every optional surface an API implementation may
// offer beyond the core interface. Fields are nil when the
// implementation does not offer that capability.
type CapabilitySet struct {
	Transfer Transferrer
	Depth    DepthReporter
	Trace    TraceScoper
	Recover  Recoverer
	Ping     Pinger
}

// Capabilities discovers the optional surfaces of an API in one place,
// replacing scattered type assertions at call sites. The result is a
// snapshot: capability membership is a property of the implementation
// type and does not change at runtime.
func Capabilities(api API) CapabilitySet {
	var c CapabilitySet
	if t, ok := api.(Transferrer); ok {
		c.Transfer = t
	}
	if d, ok := api.(DepthReporter); ok {
		c.Depth = d
	}
	if t, ok := api.(TraceScoper); ok {
		c.Trace = t
	}
	if r, ok := api.(Recoverer); ok {
		c.Recover = r
	}
	if p, ok := api.(Pinger); ok {
		c.Ping = p
	}
	return c
}

var (
	_ API           = (*Service)(nil)
	_ Transferrer   = (*Service)(nil)
	_ DepthReporter = (*Service)(nil)
	_ Recoverer     = (*Service)(nil)
	_ Pinger        = (*Service)(nil)
)

// NewService creates a queue service.
func NewService(cfg Config) *Service {
	s := &Service{
		cfg:    cfg.withDefaults(),
		queues: make(map[string]*queueState),
		haltCh: make(chan struct{}),
	}
	if s.cfg.Durability != nil {
		s.dur = newDurableState(s.cfg.Durability)
	}
	if s.cfg.ServiceTime > 0 {
		s.slots = make(chan struct{}, s.cfg.ServiceConcurrency)
	}
	if s.cfg.Metrics != nil {
		s.met = newServiceMetrics(s.cfg.Metrics, s.cfg.MetricsName)
		s.cfg.Metrics.GaugeFunc(s.met.series("queue_backlog_visible", "", ""), func() int64 {
			v, _ := s.backlog()
			return v
		})
		s.cfg.Metrics.GaugeFunc(s.met.series("queue_backlog_inflight", "", ""), func() int64 {
			_, i := s.backlog()
			return i
		})
	}
	return s
}

// backlog sums visible and in-flight messages across every queue — the
// live depth gauges. It reads the maintained structure sizes without
// releasing expired leases (that would make a metrics scrape mutate
// delivery state), so a long-idle queue may report in-flight messages
// whose leases have lapsed.
func (s *Service) backlog() (visible, inflight int64) {
	s.mu.RLock()
	queues := make([]*queueState, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.RUnlock()
	for _, q := range queues {
		q.mu.Lock()
		visible += int64(q.visible.Len())
		inflight += int64(q.inflight.Len())
		q.mu.Unlock()
	}
	return visible, inflight
}

// QueueDepth reports one queue's live depth (DepthReporter): the
// maintained structure sizes, unbilled and without releasing expired
// leases — see backlog for why a scrape must not mutate delivery state.
func (s *Service) QueueDepth(queueName string) (visible, inflight int, err error) {
	q, err := s.getQueue(queueName)
	if err != nil {
		return 0, 0, err
	}
	q.mu.Lock()
	visible, inflight = q.visible.Len(), q.inflight.Len()
	q.mu.Unlock()
	return visible, inflight, nil
}

// APIRequests returns the total number of billed API calls so far.
func (s *Service) APIRequests() int64 {
	return s.billing.Total()
}

// APIRequestsFor returns the billed API calls addressed to one queue
// (service-wide calls like ListQueues are not attributed).
func (s *Service) APIRequestsFor(queueName string) int64 {
	return s.billing.For(queueName)
}

// admit is the entry of every billed call: a halted service refuses it,
// anything else is billed to queueName. With ServiceTime set the bill
// also charges the simulated request-processing cost, before any lock is
// taken, so concurrent callers queue on the service's capacity rather
// than on its state.
func (s *Service) admit(queueName string) error {
	if s.halted.Load() {
		return ErrHalted
	}
	s.billing.Count(queueName)
	if s.met != nil {
		s.met.markQueue(queueName)
	}
	if s.slots != nil {
		s.slots <- struct{}{}
		time.Sleep(s.cfg.ServiceTime)
		<-s.slots
	}
	return nil
}

// getQueue resolves a live queue by name.
func (s *Service) getQueue(name string) (*queueState, error) {
	s.mu.RLock()
	q := s.queues[name]
	s.mu.RUnlock()
	if q == nil {
		return nil, ErrNoSuchQueue
	}
	return q, nil
}

// queueSeed derives a per-queue deterministic rng stream from the
// service seed and the queue name.
func queueSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// newQueueState builds an empty queue, not yet in the namespace.
func (s *Service) newQueueState(name string) *queueState {
	return &queueState{
		name:      name,
		rng:       rand.New(rand.NewSource(queueSeed(s.cfg.Seed, name))),
		visible:   list.New(),
		byReceipt: make(map[string]*message),
		byID:      make(map[string]*message),
		notify:    make(chan struct{}),
	}
}

// --- The state machine (see Service) ----------------------------------

// withQueue runs fn on the queue a record of kind op names, locked and
// known live. Create and delete hold the namespace for the whole call —
// create is handed a fresh queue that is not yet in it — and every other
// op holds only the queue, so a delete racing it is seen as q.dead.
func (s *Service) withQueue(op durOp, name string, fn func(q *queueState) error) error {
	var q *queueState
	if op == opCreateQueue || op == opDeleteQueue {
		s.mu.Lock()
		defer s.mu.Unlock()
		q = s.queues[name]
	} else {
		q, _ = s.getQueue(name)
	}
	switch {
	case op == opCreateQueue && q != nil:
		return ErrQueueExists
	case op == opCreateQueue:
		q = s.newQueueState(name)
	case q == nil:
		return ErrNoSuchQueue
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.dead {
		// A racing DeleteQueue already journaled its record: one more
		// record for this queue would poison replay.
		return ErrNoSuchQueue
	}
	return fn(q)
}

// A planFunc is one op's decision: it reads the locked queue and fills
// rec with what the op will do — ids, receipts, lease times — and fails
// the call if it cannot be done. It changes nothing a record describes:
// the only state it may touch is the rng and leases that have already
// lapsed (expireLocked), neither of which is journaled. Results the
// caller returns are taken here too, since everything they hold is known
// once the record is.
type planFunc func(q *queueState, rec *durRecord) error

// commit is the mutation bracket, written once: under the journal's
// append lock and the queue's lock, plan the record, append it when the
// service is durable, apply it. An op whose record would change nothing
// (an empty receive, a batch delete of stale receipts) stops after the
// plan and is neither journaled nor applied. rec is the queue's scratch
// record, so planning allocates only what the caller keeps.
func (s *Service) commit(op durOp, queueName string, plan planFunc) error {
	d := s.dur
	if d != nil {
		if err := d.lock(); err != nil {
			return err
		}
	}
	err := s.withQueue(op, queueName, func(q *queueState) error {
		rec := &q.rec
		rec.reset(op, queueName)
		if plan != nil {
			if err := plan(q, rec); err != nil {
				return err
			}
		}
		if rec.identity() {
			return nil
		}
		if d != nil {
			if err := d.append(rec); err != nil {
				return err
			}
		}
		err := s.applyLocked(q, rec)
		clear(rec.Bodies) // the scratch must not pin the caller's buffers
		return err
	})
	if d != nil {
		d.unlock()
		if err == nil && d.due() {
			s.snapshot()
		}
	}
	return err
}

// mutate is a whole message-path call: latency histogram, admission,
// commit.
func (s *Service) mutate(metric string, op durOp, queueName string, plan planFunc) error {
	defer s.opDone(metric, s.opStart())
	if err := s.admit(queueName); err != nil {
		return err
	}
	return s.commit(op, queueName, plan)
}

// applyLocked is the queue's one transition function: the live commit
// and the journal fold are both this. Caller holds q.mu — and s.mu for
// create and delete — via withQueue. Applying is strict: a record that
// does not fit the state (unknown message, repeated id, ragged lists)
// is an error, never a guess. A record that carries a time first
// releases every lease lapsed by then, so where a message sits depends
// on the records alone, not on when a live service happened to look.
func (s *Service) applyLocked(q *queueState, rec *durRecord) error {
	switch rec.Op {
	case opCreateQueue:
		s.queues[q.name] = q
	case opDeleteQueue:
		delete(s.queues, q.name)
		q.dead = true
		q.broadcastLocked() // blocked receivers wake to ErrNoSuchQueue
	case opSend:
		if len(rec.IDs) != len(rec.Bodies) || (len(rec.Recvs) != 0 && len(rec.Recvs) != len(rec.IDs)) {
			return fmt.Errorf("send record shape: %d ids, %d bodies, %d recvs", len(rec.IDs), len(rec.Bodies), len(rec.Recvs))
		}
		for i, id := range rec.IDs {
			if _, ok := q.byID[id]; ok {
				return fmt.Errorf("send of duplicate message %q", id)
			}
			// The one copy of the body: callers and journal buffers keep
			// theirs.
			m := &message{id: id, heapIdx: -1, body: append([]byte(nil), rec.Bodies[i]...)}
			if len(rec.Recvs) != 0 {
				m.receives = rec.Recvs[i]
			}
			m.elem = q.visible.PushBack(m)
			q.byID[id] = m
		}
		q.nextID = rec.NextID
		q.broadcastLocked()
	case opReceive:
		n := len(rec.IDs)
		if len(rec.Receipts) != n || len(rec.Vis) != n || len(rec.Dup) != n {
			return fmt.Errorf("receive record shape: %d ids, %d receipts, %d vis, %d dup",
				n, len(rec.Receipts), len(rec.Vis), len(rec.Dup))
		}
		q.expireLocked(rec.T)
		for i, id := range rec.IDs {
			m, ok := q.byID[id]
			if !ok {
				return fmt.Errorf("receive of unknown message %q", id)
			}
			m.receives++
			if m.receipt != "" {
				delete(q.byReceipt, m.receipt)
			}
			m.receipt = rec.Receipts[i]
			q.byReceipt[m.receipt] = m
			if rec.Dup[i] {
				continue // a duplicate delivery leaves the message visible
			}
			q.detachLocked(m)
			m.visibleAt = rec.Vis[i]
			heap.Push(&q.inflight, m)
		}
	case opDelete:
		for _, id := range rec.IDs {
			m, ok := q.byID[id]
			if !ok {
				return fmt.Errorf("delete of unknown message %q", id)
			}
			q.removeLocked(m)
		}
	case opVisibility:
		if len(rec.Vis) != len(rec.IDs) {
			return fmt.Errorf("visibility record shape: %d ids, %d vis", len(rec.IDs), len(rec.Vis))
		}
		q.expireLocked(rec.T)
		for i, id := range rec.IDs {
			m, ok := q.byID[id]
			if !ok {
				return fmt.Errorf("visibility change on unknown message %q", id)
			}
			q.placeLocked(m, rec.Vis[i], rec.T)
		}
	case opPurge:
		q.visible.Init()
		q.inflight = nil
		q.byReceipt = make(map[string]*message)
		q.byID = make(map[string]*message)
	default:
		return fmt.Errorf("unknown op %v", rec.Op)
	}
	return nil
}

// broadcastLocked wakes every long-poll waiter on the queue. Caller
// holds q.mu.
func (q *queueState) broadcastLocked() {
	close(q.notify)
	q.notify = make(chan struct{})
}

// expireLocked releases every in-flight message whose visibility timeout
// has passed to the front of the visible list, one at a time in the
// heap's (total) order. Releasing up to t1 and then up to t2 therefore
// leaves the same list as releasing up to t2 at once, which is what lets
// expiry stay out of the journal: the fold releases when a record's time
// says so, a live service whenever it looks, and both end up with the
// same queue. Caller holds q.mu. O(log n) per expired message.
func (q *queueState) expireLocked(now time.Time) {
	for len(q.inflight) > 0 && !q.inflight[0].visibleAt.After(now) {
		m := heap.Pop(&q.inflight).(*message)
		m.elem = q.visible.PushFront(m)
	}
}

// detachLocked takes a live message out of whichever delivery structure
// holds it. Caller holds q.mu and puts it back, or drops it.
func (q *queueState) detachLocked(m *message) {
	if m.elem != nil {
		q.visible.Remove(m.elem)
		m.elem = nil
	} else if m.heapIdx >= 0 {
		heap.Remove(&q.inflight, m.heapIdx)
	}
}

// removeLocked removes a live message from every index. Caller holds
// q.mu.
func (q *queueState) removeLocked(m *message) {
	q.detachLocked(m)
	if m.receipt != "" {
		delete(q.byReceipt, m.receipt)
	}
	delete(q.byID, m.id)
}

// placeLocked moves a message to match a new visibleAt relative to now
// — the ChangeVisibility placement rules. Caller holds q.mu.
func (q *queueState) placeLocked(m *message, visibleAt, now time.Time) {
	old := m.visibleAt
	m.visibleAt = visibleAt
	switch {
	case m.visibleAt.After(now) && m.elem != nil:
		// Re-hide a currently visible message (e.g. its lease expired but
		// it was not yet redelivered).
		q.visible.Remove(m.elem)
		m.elem = nil
		heap.Push(&q.inflight, m)
	case m.visibleAt.After(now):
		heap.Fix(&q.inflight, m.heapIdx)
	case m.elem == nil:
		// Released early: make it deliverable now and wake waiters.
		heap.Remove(&q.inflight, m.heapIdx)
		m.elem = q.visible.PushFront(m)
		q.broadcastLocked()
	}
	if m.visibleAt.Before(old) && m.heapIdx >= 0 {
		// The lease shrank but is still in the future: wake waiters so
		// their expiry timers re-arm against the new, earlier deadline.
		q.broadcastLocked()
	}
}

// --- Operations: argument validation plus a plan ----------------------

// CreateQueue registers a new queue. The name is validated before the
// call is billed, so a rejected empty name neither counts as a request
// nor grows the per-queue billing index.
func (s *Service) CreateQueue(name string) error {
	if name == "" {
		return ErrEmptyQueueName
	}
	if err := s.admit(name); err != nil {
		return err
	}
	return s.commit(opCreateQueue, name, nil)
}

// DeleteQueue removes a queue and its messages. Receivers blocked in a
// long poll on the queue wake with ErrNoSuchQueue. The record is
// appended under the queue's lock as well as the namespace's, so no
// message record can land in the journal after its queue's deletion.
func (s *Service) DeleteQueue(name string) error {
	if err := s.admit(name); err != nil {
		return err
	}
	return s.commit(opDeleteQueue, name, nil)
}

// ListQueues returns queue names sorted.
func (s *Service) ListQueues() []string {
	s.billing.CountUnattributed()
	s.mu.RLock()
	names := make([]string, 0, len(s.queues))
	for n := range s.queues {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// SendMessage enqueues a message body. The body is copied once, when the
// record is applied; receivers are handed the stored copy and must not
// mutate it.
func (s *Service) SendMessage(queueName string, body []byte) (string, error) {
	ids, err := s.send("send", queueName, [][]byte{body}, nil)
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// SendMessageBatch enqueues up to MaxBatch bodies in one call, billed as
// a single API request — the SQS batch-pricing lever that cuts the
// per-message cost the paper's Table 4 prices at one request each.
func (s *Service) SendMessageBatch(queueName string, bodies [][]byte) ([]string, error) {
	if len(bodies) == 0 || len(bodies) > MaxBatch {
		return nil, ErrBatchSize
	}
	return s.send("send_batch", queueName, bodies, nil)
}

// TransferIn enqueues a message carrying `receives` prior deliveries —
// the privileged count-preserving primitive queue migration uses. The
// next delivery reports receives+1.
func (s *Service) TransferIn(queueName string, body []byte, receives int) (string, error) {
	ids, err := s.TransferInBatch(queueName, []TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// TransferInBatch enqueues up to MaxBatch transfer items as one billed
// request. Items are validated before the call is billed, so a
// malformed batch neither counts as a request nor enqueues a prefix of
// itself.
func (s *Service) TransferInBatch(queueName string, items []TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > MaxBatch {
		return nil, ErrBatchSize
	}
	bodies := make([][]byte, len(items))
	recvs := make([]int, len(items))
	for i, it := range items {
		if it.Receives < 0 {
			return nil, fmt.Errorf("%w: %d", ErrBadTransfer, it.Receives)
		}
		bodies[i], recvs[i] = it.Body, it.Receives
	}
	return s.send("transfer", queueName, bodies, recvs)
}

// send enqueues bodies with prior delivery counts (nil recvs: none — an
// ordinary send) and returns the ids they were given: the queue's next
// counter values, named in the record so a fold assigns the same ones.
func (s *Service) send(metric, queueName string, bodies [][]byte, recvs []int) ([]string, error) {
	var ids []string
	err := s.mutate(metric, opSend, queueName, func(q *queueState, rec *durRecord) error {
		ids = make([]string, len(bodies))
		for i := range ids {
			ids[i] = fmt.Sprintf("%s-%d", q.name, q.nextID+i+1)
			rec.IDs = append(rec.IDs, ids[i])
		}
		rec.Bodies = append(rec.Bodies, bodies...)
		rec.Recvs = append(rec.Recvs, recvs...)
		rec.NextID = q.nextID + len(ids)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// planReceives fills a receive record with up to max deliveries and
// returns the messages the caller will be handed, reproducing receive
// semantics exactly: each pick is uniform over the first ShuffleWindow
// still-deliverable visible messages (a non-duplicate pick is hidden
// from later picks in the same batch, a duplicate stays eligible), and
// the rng draw sequence matches what sequential single receives would
// consume. Caller holds q.mu and has already run expireLocked(now).
func (s *Service) planReceives(q *queueState, rec *durRecord, now time.Time, visibility time.Duration, max int) []Message {
	var out []Message
	var pickBuf [MaxBatch]*message // picks[i] is the message of rec.IDs[i]
	picks := pickBuf[:0]
	for len(picks) < max {
		var window [8]*message
		cands := window[:0]
	scan:
		for e := q.visible.Front(); e != nil && len(cands) < s.cfg.ShuffleWindow; e = e.Next() {
			m := e.Value.(*message)
			for i, p := range picks {
				if p == m && !rec.Dup[i] {
					continue scan
				}
			}
			cands = append(cands, m)
		}
		if len(cands) == 0 {
			break
		}
		m := cands[q.rng.Intn(len(cands))]
		dup := s.cfg.DuplicateProb > 0 && q.rng.Float64() < s.cfg.DuplicateProb
		recvs := m.receives + 1
		for _, p := range picks {
			if p == m {
				recvs++
			}
		}
		receipt := fmt.Sprintf("%s#r%d", m.id, recvs)
		var lease time.Time // zero for a duplicate: it takes no lease
		if !dup {
			lease = now.Add(visibility)
		}
		picks = append(picks, m)
		rec.IDs = append(rec.IDs, m.id)
		rec.Receipts = append(rec.Receipts, receipt)
		rec.Vis = append(rec.Vis, lease)
		rec.Dup = append(rec.Dup, dup)
		if out == nil {
			n := max // exact unless duplicates stretch a short queue
			if s.cfg.DuplicateProb == 0 && q.visible.Len() < n {
				n = q.visible.Len()
			}
			out = make([]Message, 0, n)
		}
		out = append(out, Message{
			ID:            m.id,
			Body:          m.body, // stored copy; read-only contract
			ReceiptHandle: receipt,
			Receives:      recvs,
		})
	}
	rec.T = now
	return out
}

// ReceiveMessage pops a visible message, hiding it for the visibility
// timeout (DefaultVisibility when 0). It returns ok=false when nothing is
// visible. Delivery order is deliberately not FIFO, and with
// DuplicateProb > 0 a message may occasionally be delivered to two
// receivers at once — both SQS behaviours the paper's design tolerates.
func (s *Service) ReceiveMessage(queueName string, visibility time.Duration) (Message, bool, error) {
	return s.ReceiveMessageWait(queueName, visibility, 0)
}

// ReceiveMessageWait is ReceiveMessage with SQS-style long polling: when
// the queue has nothing visible it blocks until a message arrives, an
// in-flight message's visibility expires, or the wait time elapses,
// instead of forcing the caller into a sleep loop. wait <= 0 returns
// immediately.
func (s *Service) ReceiveMessageWait(queueName string, visibility, wait time.Duration) (Message, bool, error) {
	msgs, err := s.receiveBatchWait(queueName, visibility, 1, wait)
	if err != nil || len(msgs) == 0 {
		return Message{}, false, err
	}
	return msgs[0], true, nil
}

// ReceiveMessageBatch receives up to max (≤ MaxBatch) messages in one
// call, billed as a single API request, long-polling up to wait when the
// queue is empty. It returns an empty slice — not an error — when
// nothing became visible in time.
func (s *Service) ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]Message, error) {
	if max <= 0 || max > MaxBatch {
		return nil, ErrBatchSize
	}
	return s.receiveBatchWait(queueName, visibility, max, wait)
}

// receiveBatchWait is the shared receive core: one billed request, up to
// max messages, blocking up to wait for the first one. Each attempt is
// its own commit, so a durable service records the batch before any
// caller can observe it and an empty attempt records nothing.
func (s *Service) receiveBatchWait(queueName string, visibility time.Duration, max int, wait time.Duration) ([]Message, error) {
	defer s.opDone("receive", s.opStart())
	if err := s.admit(queueName); err != nil {
		return nil, err
	}
	if visibility <= 0 {
		visibility = s.cfg.DefaultVisibility
	}
	// The overall timer caps real blocking time even under a FakeClock
	// whose time never advances, so stopping a worker mid-poll cannot
	// deadlock.
	var overallC <-chan time.Time
	if wait > 0 {
		overall := time.NewTimer(wait)
		defer overall.Stop()
		overallC = overall.C
	}
	deadline := s.cfg.Clock.Now().Add(wait)
	for {
		// Grab the advance channel before inspecting state: a clock
		// advance after this point closes exactly this channel, so the
		// select below cannot miss it.
		var advC <-chan struct{}
		if an, ok := s.cfg.Clock.(AdvanceNotifier); ok {
			advC = an.AdvanceCh()
		}
		// What an attempt that delivered nothing leaves for the wait below,
		// captured under the queue lock together with the emptiness check so
		// a send between here and the select cannot slip past unnoticed.
		var (
			out      []Message
			now      time.Time
			notify   chan struct{}
			expiryIn time.Duration // time to the earliest in-flight expiry; 0 = none
		)
		err := s.commit(opReceive, queueName, func(q *queueState, rec *durRecord) error {
			now = s.cfg.Clock.Now()
			q.expireLocked(now)
			if out = s.planReceives(q, rec, now, visibility, max); len(out) > 0 {
				return nil
			}
			notify = q.notify
			if len(q.inflight) > 0 {
				expiryIn = q.inflight[0].visibleAt.Sub(now)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(out) > 0 || wait <= 0 || !now.Before(deadline) {
			return out, nil
		}
		if woke, err := s.park(notify, advC, expiryIn, overallC); !woke {
			return nil, err
		}
	}
}

// park blocks a long poll until something may have made a message
// deliverable — a send or early release (notify), a clock advance, the
// earliest lease expiring — and reports false when the poll is over
// instead: its wait ran out, or the service was halted.
func (s *Service) park(notify <-chan struct{}, advC <-chan struct{}, expiryIn time.Duration, overallC <-chan time.Time) (bool, error) {
	var expiryC <-chan time.Time
	if expiryIn > 0 {
		expiry := time.NewTimer(expiryIn)
		defer expiry.Stop()
		expiryC = expiry.C
	}
	select {
	case <-notify:
	case <-advC:
	case <-expiryC:
	case <-s.haltCh:
		return false, ErrHalted
	case <-overallC:
		return false, nil
	}
	return true, nil
}

// DeleteMessage acknowledges a message by its most recent receipt handle.
// A stale handle (the message timed out and was redelivered) returns
// ErrStaleReceipt, matching SQS's contract that only the latest receipt
// is authoritative. The message is removed from every index immediately,
// so deleted messages occupy no memory and slow no later operation.
func (s *Service) DeleteMessage(queueName, receiptHandle string) error {
	return s.mutate("delete", opDelete, queueName, func(q *queueState, rec *durRecord) error {
		m, ok := q.byReceipt[receiptHandle]
		if !ok {
			return ErrStaleReceipt
		}
		rec.IDs = append(rec.IDs, m.id)
		return nil
	})
}

// DeleteMessageBatch acknowledges up to MaxBatch messages in one call,
// billed as a single API request. The returned slice has one entry per
// receipt: nil on success, ErrStaleReceipt for stale handles — partial
// failure does not abort the rest of the batch, matching SQS.
func (s *Service) DeleteMessageBatch(queueName string, receipts []string) ([]error, error) {
	if len(receipts) == 0 || len(receipts) > MaxBatch {
		return nil, ErrBatchSize
	}
	results := make([]error, len(receipts))
	err := s.mutate("delete_batch", opDelete, queueName, func(q *queueState, rec *durRecord) error {
		for i, r := range receipts {
			// A receipt repeated within the batch fails its second entry,
			// exactly like sequential deletes would.
			if m, ok := q.byReceipt[r]; ok && !slices.Contains(rec.IDs, m.id) {
				rec.IDs = append(rec.IDs, m.id)
			} else {
				results[i] = ErrStaleReceipt
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ChangeVisibility extends or shrinks the invisibility of an in-flight
// message (SQS ChangeMessageVisibility), used by long-running workers to
// keep ownership of a task. O(log n) by receipt handle.
func (s *Service) ChangeVisibility(queueName, receiptHandle string, d time.Duration) error {
	return s.mutate("change_visibility", opVisibility, queueName, func(q *queueState, rec *durRecord) error {
		m, ok := q.byReceipt[receiptHandle]
		if !ok {
			return ErrStaleReceipt
		}
		rec.T = s.cfg.Clock.Now()
		rec.IDs = append(rec.IDs, m.id)
		rec.Vis = append(rec.Vis, rec.T.Add(d))
		return nil
	})
}

// ApproximateCount reports visible and in-flight (invisible, undeleted)
// message counts. Like SQS, the numbers are approximate from the caller's
// perspective because they race with concurrent operations — but each
// snapshot is exact and O(expired) to produce: the maintained structure
// sizes are read after releasing newly expired leases, with no scan over
// the message history.
func (s *Service) ApproximateCount(queueName string) (visible, inflight int, err error) {
	defer s.opDone("count", s.opStart())
	if err := s.admit(queueName); err != nil {
		return 0, 0, err
	}
	q, err := s.getQueue(queueName)
	if err != nil {
		return 0, 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(s.cfg.Clock.Now())
	return q.visible.Len(), q.inflight.Len(), nil
}

// Purge removes every message from a queue.
func (s *Service) Purge(queueName string) error {
	return s.mutate("purge", opPurge, queueName, nil)
}

// Halt kills the service in place: every subsequent operation — and
// every long poll already blocked — fails with ErrHalted, while
// in-memory state stays exactly as it was, like a process that took
// SIGKILL. Halt never touches the journal (that is the point: a
// durable deployment recovers by folding the journal into a fresh
// service, or by promoting a Follower — see shard failover).
func (s *Service) Halt() {
	if s.halted.Swap(true) {
		return
	}
	close(s.haltCh)
}

// Ping reports liveness (Pinger): nil while the service accepts
// traffic, ErrHalted after Halt. It is unbilled and lock-free — the
// cheapest possible health probe.
func (s *Service) Ping() error {
	if s.halted.Load() {
		return ErrHalted
	}
	return nil
}
