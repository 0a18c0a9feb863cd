package shard

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/telemetry"
)

// Errors returned by the router itself; data-plane calls return the
// queue package's sentinels so consumers cannot tell a router from a
// single service.
var (
	ErrNoShards    = errors.New("shard: no shards registered")
	ErrShardExists = errors.New("shard: shard id already registered")
	ErrNoSuchShard = errors.New("shard: no such shard")
	ErrBadShardID  = errors.New("shard: shard id must be non-empty and must not contain '~'")
	// ErrBadGroup rejects a group argument containing the group
	// separator: DeriveGroup never yields one, so "job-7/tasks" as a group
	// would name no queue's group and split or pin nothing.
	ErrBadGroup = errors.New("shard: placement group must not contain '/'")
	// ErrGroupPinned rejects a split of a group that opted into strict
	// co-location (PinGroup): jobs whose correctness depends on all
	// queues sharing one shard must never be spread by the load policy.
	ErrGroupPinned = errors.New("shard: placement group is pinned to one shard")
	// ErrBadSplit bounds the sub-arc count: zero or negative is
	// meaningless and an absurdly high k would shred a group finer than
	// its queue count for no balance gain.
	ErrBadSplit = fmt.Errorf("shard: subgroup count must be in [1, %d]", maxSubgroups)
)

// maxSubgroups caps how many sub-arcs a split may spread a group over.
// A group rarely has more queues than this; past it the sub-arcs are
// mostly empty and every topology sweep pays for them.
const maxSubgroups = 64

// receiptSep joins the issuing shard's id to a receipt handle. Receipts
// must route to the shard that issued the lease — not the queue's
// current owner — so acknowledgements keep working while a queue
// migrates away from in-flight messages.
const receiptSep = "~"

// groupSep splits a queue name into its placement-group key and the
// queue's own name: "job-7/tasks" belongs to group "job-7".
const groupSep = "/"

// DeriveGroup returns the placement-group key a queue name implies:
// the segment before the first '/', or the whole name for an ungrouped
// name. The ring hashes this key instead of the full name, so every
// queue of one group — a job's task, monitor, and dead-letter queues —
// lands on the same shard and the job's queue traffic never crosses
// shards.
func DeriveGroup(name string) string {
	if i := strings.Index(name, groupSep); i > 0 {
		return name[:i]
	}
	return name
}

// subgroupIndex deterministically assigns a queue to one of k sub-arcs
// by hashing its full name. The salt keeps the assignment independent
// of the ring's own hash of the group key, and hashing the NAME (not
// the group) is what spreads a hot group: all of the group's queues
// share one group key but land on k different sub-arcs. The mapping
// depends only on (name, k), so every process — and every rebuild of
// the router — derives the same placement, which is what keeps
// receipts and in-flight messages routable across a split.
func subgroupIndex(name string, k int) int {
	return int(hash64("subgroup/"+name) % uint64(k))
}

// ringOwnerLocked is the single definition of where a queue lives:
// the owner of its placement group (DeriveGroup), re-derived across k
// sub-arcs while the group is split — sub-arc i is the i-th distinct
// shard after the group's hash in ring order (ring.successor), so a
// k-way split is guaranteed to reach min(k, shards) different shards.
// Co-location degrades gracefully: all of one QUEUE's traffic (and
// its receipts, and its in-flight messages) still maps to exactly one
// sub-arc, only the group's queues fan out over k of them. Caller
// holds r.mu.
func (r *Router) ringOwnerLocked(name string) (string, bool) {
	g := DeriveGroup(name)
	if k := r.splits[g]; k > 1 {
		return r.ring.successor(g, subgroupIndex(name, k))
	}
	return r.ring.owner(g)
}

func wrapReceipt(shardID, receipt string) string { return shardID + receiptSep + receipt }

func splitReceipt(wrapped string) (shardID, receipt string, ok bool) {
	i := strings.Index(wrapped, receiptSep)
	if i <= 0 {
		return "", "", false
	}
	return wrapped[:i], wrapped[i+1:], true
}

const (
	// drainVisibility is the lease the migrator takes on messages it
	// streams between shards: long enough to move a batch, short enough
	// that a crashed migration redelivers quickly.
	drainVisibility = time.Minute
	// leaseHorizon bounds how long a forwarder keeps watching the old
	// shard for expiring in-flight messages. Past it the old queue is
	// left in place so outstanding receipts stay valid, but nothing is
	// forwarded any more.
	leaseHorizon = time.Hour
	// virtualNodes is each shard's point count on the hash ring: enough
	// to keep the split even, few enough that the ring stays small.
	virtualNodes = 64
)

// Config tunes the router.
type Config struct {
	// ForwardInterval is how often a straggler forwarder polls the old
	// shard after a migration (default 10ms).
	ForwardInterval time.Duration
	// Metrics, when set, receives the router's instruments: per-op
	// latency histograms (router_op_ns), per-shard and per-group request
	// rates (shard_requests, group_requests) and live backlog gauges
	// (shard_backlog, group_backlog). Nil leaves the data path
	// uninstrumented — not even a clock read.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.ForwardInterval == 0 {
		c.ForwardInterval = 10 * time.Millisecond
	}
	return c
}

// Router fronts N queue services with one queue.API. Queue names map to
// shards through a consistent-hash ring over their placement-group key
// (DeriveGroup), so one group's queues co-locate; every data-plane call
// is forwarded to the owning shard, receipts route back to the shard
// that issued them, and shards can be added or removed at runtime with
// drain-and-forward queue migration that preserves delivery counts
// through the privileged transfer API.
type Router struct {
	// routerView with an empty trace is the router's own data plane: every
	// queue.API / Transferrer method of *Router is the view's, promoted,
	// so each routed op has exactly one body.
	routerView

	cfg Config

	// topoMu serializes topology changes (change, Failover) and the
	// migrations they trigger.
	topoMu sync.Mutex

	// mu guards ring, shards, routes, splits, pinned, and standbys.
	mu     sync.RWMutex
	ring   *ring
	shards map[string]queue.API
	routes map[string]*route
	// standbys maps a shard id to its registered standby (see
	// failover.go); failovers counts automatic promotions by the health
	// loop.
	standbys  map[string]*standby
	failovers atomic.Int64
	// splits maps a placement group to its sub-arc count; absent (or 1)
	// means unsplit. pinned groups opted out of splitting entirely
	// (strict co-location).
	splits map[string]int
	pinned map[string]bool

	// billing mirrors queue.Service: one request per routed call,
	// attributed to the addressed queue, so the broker's per-tenant
	// accounting works unchanged against a sharded deployment.
	billing queue.RequestCounter

	closing   chan struct{}
	closeOnce sync.Once
	fwd       sync.WaitGroup

	// ops and the two rate axes are nil, and free, unless Config.Metrics
	// is set. The rates are marked wherever a routed call resolves a
	// backend — owner resolution, receipt routing, batch-delete groups —
	// so they count backend hops, including migration retries, and the
	// split policy sees which GROUP is hot, not just which shard.
	ops                    *telemetry.Ops
	shardRates, groupRates *telemetry.Rates
}

// routerOps is the set of routed operations that get their own latency
// histogram. The histogram brackets the whole routed call — owner
// resolution (including any wait on a frozen route), the backend hop,
// and retries — so a migration stall shows up as router latency even
// when the shard itself stayed fast.
var routerOps = []string{
	"create_queue", "delete_queue", "send", "send_batch", "receive",
	"delete", "delete_batch", "change_visibility", "transfer", "count",
	"purge",
}

// routerView is the router's data plane with a trace ID bound: it shares
// all router state and only pins the ID carried to every backend hop
// (empty for the view embedded in Router itself).
type routerView struct {
	r     *Router
	trace string
}

var (
	_ queue.API         = (*Router)(nil)
	_ queue.Transferrer = (*Router)(nil)
	_ queue.TraceScoper = (*Router)(nil)
	_ queue.API         = (*routerView)(nil)
	_ queue.Transferrer = (*routerView)(nil)
	_ queue.TraceScoper = (*routerView)(nil)
)

// WithTrace returns a view of the router that carries traceID through to
// every backend hop (queue.TraceScoper): a remote shard's wire client
// puts it in each frame's trace field, so one logical request stays
// correlatable from the caller through the router to the shard that
// served it.
func (v *routerView) WithTrace(traceID string) queue.API {
	return &routerView{r: v.r, trace: traceID}
}

// NewRouter creates an empty router; add shards before creating queues.
func NewRouter(cfg Config) *Router {
	c := cfg.withDefaults()
	r := &Router{
		cfg:     c,
		ring:    newRing(virtualNodes),
		shards:  make(map[string]queue.API),
		routes:  make(map[string]*route),
		splits:  make(map[string]int),
		pinned:  make(map[string]bool),
		closing: make(chan struct{}),
	}
	r.routerView.r = r
	if c.Metrics != nil {
		r.ops = telemetry.NewOps(c.Metrics, "router_op_ns", routerOps...)
		r.shardRates = telemetry.NewRates(c.Metrics, "shard_requests", "shard")
		r.groupRates = telemetry.NewRates(c.Metrics, "group_requests", "group")
		// Backlog gauges are refreshed at scrape time rather than
		// maintained on the data path: depth is already tracked by each
		// shard, and a per-send gauge update would put a second write on
		// every routed call for a number only read by scrapes. One
		// snapshot feeds both attribution axes — per shard and per group.
		// The gauges of groups that vanished (last queue deleted) are
		// zeroed so a stale reading never lingers at its final value;
		// gaugeMu guards seenGroups across concurrent scrapes.
		var gaugeMu sync.Mutex
		seenGroups := make(map[string]bool)
		c.Metrics.AddCollector(func(reg *telemetry.Registry) {
			snap := r.Snapshot()
			for _, st := range snap.Shards {
				reg.Gauge(telemetry.Label("shard_backlog", "shard", st.ID)).Set(st.Backlog)
			}
			gaugeMu.Lock()
			gone := seenGroups
			seenGroups = make(map[string]bool, len(snap.Groups))
			for _, gs := range snap.Groups {
				delete(gone, gs.Group)
				seenGroups[gs.Group] = true
				reg.Gauge(telemetry.Label("group_backlog", "group", gs.Group)).Set(gs.Backlog)
			}
			for g := range gone {
				reg.Gauge(telemetry.Label("group_backlog", "group", g)).Set(0)
			}
			gaugeMu.Unlock()
		})
	}
	return r
}

// Close stops the background straggler forwarders and waits for them.
// Data-plane calls keep working; Close only abandons migrations'
// tail work.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.closing) })
	r.fwd.Wait()
}

// count bills one routed call addressed to queueName, through the same
// attribution model queue.Service uses.
func (r *Router) count(queueName string) { r.billing.Count(queueName) }

// APIRequests returns the total routed calls billed by the router.
func (v *routerView) APIRequests() int64 { return v.r.billing.Total() }

// APIRequestsFor returns the routed calls addressed to one queue.
func (v *routerView) APIRequestsFor(queueName string) int64 { return v.r.billing.For(queueName) }

// route looks up a queue's route; nil when the queue is not routed.
func (r *Router) route(name string) *route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.routes[name]
}

// backend looks up a registered shard — on the ring or retired; nil for
// an unknown id.
func (r *Router) backend(id string) queue.API {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[id]
}

// ownerBackend takes the route's lease — the owning shard and the epoch
// it was installed at — waiting out any in-progress migration. The
// returned backend is trace-scoped and the shard's request rate is
// bumped: every caller represents one backend hop.
func (v *routerView) ownerBackend(queueName string, rt *route) (string, uint64, queue.API, error) {
	r := v.r
	id, epoch, dead := rt.await()
	b := r.backend(id)
	if dead || b == nil {
		return "", 0, nil, queue.ErrNoSuchQueue
	}
	r.shardRates.Mark(id)
	r.groupRates.Mark(DeriveGroup(queueName))
	return id, epoch, queue.WithTrace(b, v.trace), nil
}

// onOwner runs fn against the queue's owning shard. A shard answers
// ErrNoSuchQueue both for a deleted queue and for one that migrated
// away underneath the call — a long poll parked on the old owner wakes
// that way once the residue is deleted. The route tells them apart: the
// call retries exactly when the route is still live and its epoch moved
// since dispatch. Comparing shard ids instead would hand a live queue's
// consumer ErrNoSuchQueue after a move away and back, and there is no
// attempt cap because every retry needs a completed migration.
func (v *routerView) onOwner(queueName string, fn func(shardID string, b queue.API) error) error {
	rt := v.r.route(queueName)
	if rt == nil {
		return queue.ErrNoSuchQueue
	}
	for {
		id, epoch, b, err := v.ownerBackend(queueName, rt)
		if err != nil {
			return err
		}
		err = fn(id, b)
		if err == nil || !errors.Is(err, queue.ErrNoSuchQueue) {
			return err
		}
		if _, now, dead := rt.await(); dead || now == epoch {
			return err
		}
	}
}

// CreateQueue places a new queue on its ring owner. The route is
// published frozen and thawed only after the backend queue exists:
// concurrent operations (and a concurrent AddShard's migration) wait
// instead of finding a route whose shard has no queue yet — a
// half-created queue migrated in that window would leave an orphan
// copy on the old owner.
func (v *routerView) CreateQueue(name string) error {
	if name == "" {
		return queue.ErrEmptyQueueName
	}
	r := v.r
	defer r.ops.Done("create_queue", r.ops.Start())
	r.count(name)
	r.mu.Lock()
	if _, ok := r.routes[name]; ok {
		r.mu.Unlock()
		return queue.ErrQueueExists
	}
	owner, ok := r.ringOwnerLocked(name)
	if !ok {
		r.mu.Unlock()
		return ErrNoShards
	}
	rt := newRoute(owner)
	r.routes[name] = rt
	b := r.shards[owner]
	r.mu.Unlock()
	r.shardRates.Mark(owner)
	r.groupRates.Mark(DeriveGroup(name))
	err := queue.WithTrace(b, v.trace).CreateQueue(name)
	if err != nil && !errors.Is(err, queue.ErrQueueExists) {
		r.mu.Lock()
		// Only remove our own route: a concurrent DeleteQueue may have
		// removed it already and a later CreateQueue published a new
		// one, which must not be torn down by this failure.
		if r.routes[name] == rt {
			delete(r.routes, name)
		}
		r.mu.Unlock()
		rt.kill()
	} else {
		err = nil
	}
	rt.thaw(owner)
	return err
}

// DeleteQueue removes a queue from its owner and from every old shard
// still draining stragglers.
func (v *routerView) DeleteQueue(name string) error {
	r := v.r
	defer r.ops.Done("delete_queue", r.ops.Start())
	r.count(name)
	r.mu.Lock()
	rt := r.routes[name]
	if rt == nil {
		r.mu.Unlock()
		return queue.ErrNoSuchQueue
	}
	delete(r.routes, name)
	r.mu.Unlock()
	// Mark the route dead (a migration computed before the removal must
	// not stream this queue's messages anywhere) and wait out any
	// migration already in flight so the drain isn't racing the
	// teardown — once it thaws, the lease covers the new owner. A dead
	// route never moves again, so the residues read next go with it.
	rt.kill()
	owner, _, _ := rt.await()
	_, _, olds := rt.peek()
	var err error
	if b := r.backend(owner); b != nil {
		r.shardRates.Mark(owner)
		err = queue.WithTrace(b, v.trace).DeleteQueue(name)
	}
	for _, id := range olds {
		_ = queue.WithTrace(r.backend(id), v.trace).DeleteQueue(name) // forwarder may have beaten us to it
	}
	return err
}

// ListQueues returns every routed queue name, sorted.
func (v *routerView) ListQueues() []string {
	r := v.r
	r.billing.CountUnattributed()
	r.mu.RLock()
	names := make([]string, 0, len(r.routes))
	for n := range r.routes {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// SendMessage enqueues on the owning shard.
func (v *routerView) SendMessage(queueName string, body []byte) (string, error) {
	defer v.r.ops.Done("send", v.r.ops.Start())
	v.r.count(queueName)
	var id string
	err := v.onOwner(queueName, func(_ string, b queue.API) error {
		var err error
		id, err = b.SendMessage(queueName, body)
		return err
	})
	return id, err
}

// SendMessageBatch enqueues a batch on the owning shard.
func (v *routerView) SendMessageBatch(queueName string, bodies [][]byte) ([]string, error) {
	if len(bodies) == 0 || len(bodies) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	defer v.r.ops.Done("send_batch", v.r.ops.Start())
	v.r.count(queueName)
	var ids []string
	err := v.onOwner(queueName, func(_ string, b queue.API) error {
		var err error
		ids, err = b.SendMessageBatch(queueName, bodies)
		return err
	})
	return ids, err
}

// TransferIn routes a privileged count-preserving enqueue to the
// owning shard (queue.Transferrer).
func (v *routerView) TransferIn(queueName string, body []byte, receives int) (string, error) {
	ids, err := v.TransferInBatch(queueName, []queue.TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	if len(ids) == 0 {
		// A malformed remote shard answered without ids; don't panic.
		return "", fmt.Errorf("shard: transfer into %s: backend returned no ids", queueName)
	}
	return ids[0], nil
}

// TransferInBatch routes a privileged count-preserving batch enqueue
// to the owning shard, billed as one request like every routed batch
// call. The backing shard must also implement queue.Transferrer — a
// remote shard additionally needs its admin token configured, or the
// call fails with queue.ErrNotPrivileged.
func (v *routerView) TransferInBatch(queueName string, items []queue.TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	for _, it := range items {
		if it.Receives < 0 {
			return nil, fmt.Errorf("%w: %d", queue.ErrBadTransfer, it.Receives)
		}
	}
	defer v.r.ops.Done("transfer", v.r.ops.Start())
	v.r.count(queueName)
	var ids []string
	err := v.onOwner(queueName, func(id string, b queue.API) error {
		tr, ok := b.(queue.Transferrer)
		if !ok {
			return fmt.Errorf("shard: shard %s cannot accept transfers: %w", id, queue.ErrNotPrivileged)
		}
		var err error
		ids, err = tr.TransferInBatch(queueName, items)
		return err
	})
	return ids, err
}

// ReceiveMessage pops one message from the owning shard.
func (v *routerView) ReceiveMessage(queueName string, visibility time.Duration) (queue.Message, bool, error) {
	return v.ReceiveMessageWait(queueName, visibility, 0)
}

// ReceiveMessageWait pops one message, long-polling up to wait.
func (v *routerView) ReceiveMessageWait(queueName string, visibility, wait time.Duration) (queue.Message, bool, error) {
	msgs, err := v.ReceiveMessageBatch(queueName, visibility, 1, wait)
	if err != nil || len(msgs) == 0 {
		return queue.Message{}, false, err
	}
	return msgs[0], true, nil
}

// ReceiveMessageBatch receives up to max messages from the owning shard;
// the wait happens on the shard so a send through the router wakes the
// receiver there.
func (v *routerView) ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if max <= 0 || max > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	defer v.r.ops.Done("receive", v.r.ops.Start())
	v.r.count(queueName)
	var msgs []queue.Message
	err := v.onOwner(queueName, func(id string, b queue.API) error {
		var err error
		msgs, err = b.ReceiveMessageBatch(queueName, visibility, max, wait)
		for i := range msgs {
			msgs[i].ReceiptHandle = wrapReceipt(id, msgs[i].ReceiptHandle)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// onReceipt runs fn against the shard a receipt was issued by. The queue
// must still be routed; a receipt whose shard is gone — or whose shard
// has since lost the queue to a migration — is stale, not missing: the
// message was moved and only its next delivery's receipt counts.
func (v *routerView) onReceipt(op, queueName, wrapped string, fn func(b queue.API, raw string) error) error {
	r := v.r
	defer r.ops.Done(op, r.ops.Start())
	r.count(queueName)
	rt := r.route(queueName)
	if rt == nil {
		return queue.ErrNoSuchQueue
	}
	id, raw, ok := splitReceipt(wrapped)
	if !ok {
		return fmt.Errorf("shard: unroutable receipt %q: %w", wrapped, queue.ErrStaleReceipt)
	}
	b := r.backend(id)
	if b == nil {
		return fmt.Errorf("shard: receipt from unknown shard %q: %w", id, queue.ErrStaleReceipt)
	}
	r.shardRates.Mark(id)
	r.groupRates.Mark(DeriveGroup(queueName))
	err := fn(queue.WithTrace(b, v.trace), raw)
	if errors.Is(err, queue.ErrNoSuchQueue) {
		return fmt.Errorf("shard: queue %s migrated off the issuing shard: %w", queueName, queue.ErrStaleReceipt)
	}
	return err
}

// DeleteMessage acknowledges by receipt, routed to the issuing shard.
func (v *routerView) DeleteMessage(queueName, receiptHandle string) error {
	return v.onReceipt("delete", queueName, receiptHandle, func(b queue.API, raw string) error {
		return b.DeleteMessage(queueName, raw)
	})
}

// DeleteMessageBatch acknowledges a batch, grouping receipts by issuing
// shard; entries keep their per-receipt error positions.
func (v *routerView) DeleteMessageBatch(queueName string, receipts []string) ([]error, error) {
	if len(receipts) == 0 || len(receipts) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	r := v.r
	defer r.ops.Done("delete_batch", r.ops.Start())
	r.count(queueName)
	rt := r.route(queueName)
	if rt == nil {
		return nil, queue.ErrNoSuchQueue
	}
	r.groupRates.Mark(DeriveGroup(queueName))
	results := make([]error, len(receipts))
	type group struct {
		idx []int
		raw []string
	}
	groups := make(map[string]*group)
	for i, wrapped := range receipts {
		id, raw, ok := splitReceipt(wrapped)
		if !ok {
			results[i] = fmt.Errorf("shard: unroutable receipt %q: %w", wrapped, queue.ErrStaleReceipt)
			continue
		}
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		g.idx = append(g.idx, i)
		g.raw = append(g.raw, raw)
	}
	for id, g := range groups {
		b := r.backend(id)
		if b == nil {
			for _, i := range g.idx {
				results[i] = fmt.Errorf("shard: receipt from unknown shard %q: %w", id, queue.ErrStaleReceipt)
			}
			continue
		}
		r.shardRates.Mark(id)
		res, err := queue.WithTrace(b, v.trace).DeleteMessageBatch(queueName, g.raw)
		if err != nil {
			perEntry := err
			if errors.Is(err, queue.ErrNoSuchQueue) {
				perEntry = fmt.Errorf("shard: queue %s migrated off shard %s: %w", queueName, id, queue.ErrStaleReceipt)
			}
			for _, i := range g.idx {
				results[i] = perEntry
			}
			continue
		}
		for k, i := range g.idx {
			results[i] = res[k]
		}
	}
	return results, nil
}

// ChangeVisibility adjusts a lease on the issuing shard.
func (v *routerView) ChangeVisibility(queueName, receiptHandle string, d time.Duration) error {
	return v.onReceipt("change_visibility", queueName, receiptHandle, func(b queue.API, raw string) error {
		return b.ChangeVisibility(queueName, raw, d)
	})
}

// ApproximateCount sums the owner's counts with any old shards still
// holding in-flight stragglers, so totals stay truthful mid-migration.
func (v *routerView) ApproximateCount(queueName string) (visible, inflight int, err error) {
	defer v.r.ops.Done("count", v.r.ops.Start())
	v.r.count(queueName)
	err = v.onOwner(queueName, func(_ string, b queue.API) error {
		var err error
		visible, inflight, err = b.ApproximateCount(queueName)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, ob := range v.drainingBackends(queueName) {
		if vis, inf, derr := ob.ApproximateCount(queueName); derr == nil {
			visible += vis
			inflight += inf
		}
	}
	return visible, inflight, nil
}

// Purge clears the queue on its owner and on any draining old shards.
func (v *routerView) Purge(queueName string) error {
	defer v.r.ops.Done("purge", v.r.ops.Start())
	v.r.count(queueName)
	err := v.onOwner(queueName, func(_ string, b queue.API) error {
		return b.Purge(queueName)
	})
	if err != nil {
		return err
	}
	for _, ob := range v.drainingBackends(queueName) {
		_ = ob.Purge(queueName)
	}
	return nil
}

// drainingBackends snapshots the old shards still forwarding a queue's
// stragglers (route.peek's residues: never the current owner).
func (v *routerView) drainingBackends(queueName string) []queue.API {
	r := v.r
	rt := r.route(queueName)
	if rt == nil {
		return nil
	}
	_, _, ids := rt.peek()
	out := make([]queue.API, 0, len(ids))
	for _, id := range ids {
		r.shardRates.Mark(id)
		out = append(out, queue.WithTrace(r.backend(id), v.trace))
	}
	return out
}

// Shards returns the ring members, sorted.
func (r *Router) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.members()
}

// placed is one live route as a snapshot read it.
type placed struct {
	name, shard string
	// residues are the old shards still draining the queue's stragglers.
	residues []string
}

// placements is the one pass over the routes every snapshot is built
// from. Routes are read without waiting out a freeze — an admin snapshot
// must not block on a migration — so a queue mid-drain shows its old
// owner, which is also where its messages still are.
func (r *Router) placements() []placed {
	r.mu.RLock()
	routes := make(map[string]*route, len(r.routes))
	for n, rt := range r.routes {
		routes[n] = rt
	}
	r.mu.RUnlock()
	out := make([]placed, 0, len(routes))
	for name, rt := range routes {
		if shard, dead, residues := rt.peek(); !dead {
			out = append(out, placed{name, shard, residues})
		}
	}
	return out
}

// Owners snapshots the queue→shard placement.
func (r *Router) Owners() map[string]string {
	routes := r.placements()
	out := make(map[string]string, len(routes))
	for _, p := range routes {
		out[p.name] = p.shard
	}
	return out
}

// ShardStat describes one shard's share of the namespace and traffic.
type ShardStat struct {
	ID string
	// OnRing is false for retired shards: removed from the ring but
	// still reachable for straggler receipts.
	OnRing bool
	// Queues currently routed to the shard.
	Queues int
	// Requests is the billed request count the shard itself observed —
	// router traffic plus migration/forwarding traffic.
	Requests int64
	// Backlog is the shard's live message depth: visible plus in-flight,
	// summed over the queues it currently owns, plus leftover stragglers
	// it still holds for queues that migrated away. Each message is
	// attributed to exactly one shard (see Snapshot).
	Backlog int64
	// RatePerSec is the router-observed request rate to this shard,
	// averaged over the trailing 10s window. Zero when the router has no
	// metrics registry.
	RatePerSec float64
	// Weight is the shard's ring-arc weight (1 = fair share of the key
	// space); 0 for a retired shard no longer on the ring.
	Weight float64
}

// GroupStat describes one placement group's footprint and traffic.
type GroupStat struct {
	Group string
	// Queues currently routed under the group.
	Queues int
	// Subgroups is the number of sub-arcs the group is split across
	// (1 = unsplit).
	Subgroups int
	// Pinned groups opted out of hot-group splitting (strict
	// co-location).
	Pinned bool
	// Shards the group's queues currently occupy, sorted. More than one
	// entry means the group is split (or mid-migration).
	Shards []string
	// Requests is the router-billed call count addressed to the group's
	// queues since they were created.
	Requests int64
	// Backlog is the group's live message depth (visible + in-flight),
	// including straggler copies still draining off old shards.
	Backlog int64
	// RatePerSec is the router-observed request rate to the group over
	// the trailing 10s window (0 without a metrics registry).
	RatePerSec float64
}

// Snapshot is one view of the tier along both attribution axes: per
// shard, and per placement group — the axis the split policy (and a
// capacity-planning operator) cares about: WHICH tenant is hot, not just
// which shard it happens to sit on.
type Snapshot struct {
	Shards []ShardStat // sorted by ID
	Groups []GroupStat // sorted by Group
}

// Snapshot reads the placement once — one pass over the routes, one
// depth probe per copy of a queue — and attributes it along both axes;
// the backlog gauges, the admin face and the autoscaler all read this.
//
// A queue's depth goes, by shard, to the shards actually holding the
// messages: the owner's count to the owner, and each draining old
// shard's own leftover count to that shard (never the owner twice: see
// route.peek). By group it goes to the queue's placement group, owner
// and straggler copies both — the group's messages wherever they sit,
// which is what the split policy sizes against.
//
// Depth is read through the unbilled queue.DepthReporter diagnostic
// when the backend offers it (a local *queue.Service); remote shards
// fall back to a billed ApproximateCount probe per queue.
// One Snapshot therefore costs, against remote shards, an APIRequests
// round trip per shard and a billed probe per queue copy, and every
// reader pays both: the /metrics backlog collector on each scrape too.
func (r *Router) Snapshot() Snapshot {
	r.mu.RLock()
	backends := make(map[string]queue.API, len(r.shards))
	shards := make(map[string]*ShardStat, len(r.shards))
	for id, b := range r.shards {
		backends[id] = b
		shards[id] = &ShardStat{ID: id, OnRing: r.ring.ids[id], Weight: r.ring.weights[id]}
	}
	splits, pinned := maps.Clone(r.splits), maps.Clone(r.pinned)
	r.mu.RUnlock()
	// Read billed request counts BEFORE probing backlogs: depth probes
	// against remote shards are themselves billed requests, and reading
	// in the other order would report Requests inflated by this very
	// snapshot.
	for id, st := range shards {
		st.Requests = backends[id].APIRequests()
		st.RatePerSec = r.shardRates.PerSecond(id)
	}
	groups := make(map[string]*GroupStat)
	for _, p := range r.placements() {
		g := DeriveGroup(p.name)
		gs := groups[g]
		if gs == nil {
			gs = &GroupStat{Group: g, Subgroups: max(splits[g], 1), Pinned: pinned[g], RatePerSec: r.groupRates.PerSecond(g)}
			groups[g] = gs
		}
		gs.Queues++
		gs.Requests += r.billing.For(p.name)
		if !slices.Contains(gs.Shards, p.shard) {
			gs.Shards = append(gs.Shards, p.shard)
		}
		// A shard registered since the copy above is not in this snapshot.
		if st := shards[p.shard]; st != nil {
			st.Queues++
		}
		for _, id := range append([]string{p.shard}, p.residues...) {
			if v, inf, ok := queueDepth(backends[id], p.name); ok {
				shards[id].Backlog += int64(v + inf)
				gs.Backlog += int64(v + inf)
			}
		}
	}
	snap := Snapshot{Shards: make([]ShardStat, 0, len(shards)), Groups: make([]GroupStat, 0, len(groups))}
	for _, st := range shards {
		snap.Shards = append(snap.Shards, *st)
	}
	sort.Slice(snap.Shards, func(i, j int) bool { return snap.Shards[i].ID < snap.Shards[j].ID })
	for _, gs := range groups {
		sort.Strings(gs.Shards)
		snap.Groups = append(snap.Groups, *gs)
	}
	sort.Slice(snap.Groups, func(i, j int) bool { return snap.Groups[i].Group < snap.Groups[j].Group })
	return snap
}

// Splits snapshots the sub-arc count of every currently-split group.
func (r *Router) Splits() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return maps.Clone(r.splits)
}

// queueDepth reads one queue's depth on one backend, preferring the
// unbilled diagnostic surface.
func queueDepth(b queue.API, name string) (visible, inflight int, ok bool) {
	if b == nil {
		return 0, 0, false
	}
	if dr, isDR := b.(queue.DepthReporter); isDR {
		v, inf, err := dr.QueueDepth(name)
		return v, inf, err == nil
	}
	v, inf, err := b.ApproximateCount(name)
	return v, inf, err == nil
}
