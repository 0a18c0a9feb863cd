package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// ErrUnavailable marks a transport-level failure — dial refused, peer
// hung up, request timed out, client closed — as opposed to a protocol
// answer like ErrNoSuchQueue, which means the remote did answer.
var ErrUnavailable = errors.New("wire: endpoint unavailable")

// requestTimeout bounds one round trip, excluding any long-poll wait the
// request itself asks for — receives get requestTimeout plus their wait.
// A peer that accepts a connection and never answers fails the call
// after that long instead of hanging it. A variable only so tests can
// shorten it.
var requestTimeout = 30 * time.Second

const (
	// dialTimeout bounds one connect attempt, and the discovery probe
	// that precedes the first.
	dialTimeout = 3 * time.Second
	// maxBackoff caps the reconnect backoff after repeated dial failures
	// (the first retry waits 50ms). While a pool slot is backing off,
	// calls through it fail fast with ErrUnavailable instead of queueing
	// behind doomed dials.
	maxBackoff = 2 * time.Second
	// writeQueue is how many frames a connection's writer holds queued,
	// client and server side: room for a burst of pipelined calls while
	// the writer is in a write. A client call that finds the queue full
	// goes out on the next connection; on the last one, and on a server
	// connection, the sender waits.
	writeQueue = 64
)

// Options tunes a Client. The frame cap (maxFrame), the timeouts and the
// reconnect backoff are fixed, and a trace is scoped with WithTrace, not
// configured.
type Options struct {
	// Conns is the most connections the client opens (default 4). A
	// call goes out on the first connection, and on the next only when
	// every one before it has a full write queue; a connection is dialled
	// when a call first needs it. Pipelining means one connection carries
	// many in-flight requests, and calls that share it share its writes.
	Conns int
	// AdminToken authorizes the privileged transfer opcode: empty fails
	// transfers locally with ErrNotPrivileged.
	AdminToken string
	// Metrics, when set, registers a wire_client_conns{peer=addr}
	// open-connection gauge.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	return o
}

// Client speaks the wire protocol to one endpoint and implements
// queue.API (plus Transferrer and TraceScoper), so a remote queue node
// drops in anywhere a local Service does — including as a shard backend
// behind shard.Router.
type Client struct {
	p     *pool
	trace string
}

var (
	_ queue.API         = (*Client)(nil)
	_ queue.Transferrer = (*Client)(nil)
	_ queue.TraceScoper = (*Client)(nil)
)

// Dial creates a client for addr ("host:port"). Connections are
// established lazily on first use, so Dial itself cannot fail; an
// unreachable endpoint surfaces as ErrUnavailable on the first call.
func Dial(addr string, opt Options) *Client {
	opt = opt.withDefaults()
	p := &pool{addr: addr, opt: opt}
	p.conns = make([]*cliConn, opt.Conns)
	for i := range p.conns {
		p.conns[i] = &cliConn{p: p}
	}
	if opt.Metrics != nil {
		p.connGauge = opt.Metrics.Gauge(telemetry.Label("wire_client_conns", "peer", addr))
	}
	return &Client{p: p}
}

// Close tears down every pooled connection. In-flight calls fail with
// ErrUnavailable.
func (c *Client) Close() error {
	c.p.closed.Store(true)
	for _, s := range c.p.conns {
		s.mu.Lock()
		g := s.cur
		s.mu.Unlock()
		if g != nil {
			g.fail(ErrUnavailable)
		}
	}
	return nil
}

// Addr returns the endpoint ("host:port") the client dials.
func (c *Client) Addr() string { return c.p.addr }

// WithTrace returns a view whose requests carry traceID in every
// frame's trace field, sharing the connection pool with the receiver.
func (c *Client) WithTrace(traceID string) queue.API {
	return &Client{p: c.p, trace: traceID}
}

// pool is the shared state behind every trace-scoped view of a client.
type pool struct {
	addr      string
	opt       Options
	conns     []*cliConn
	closed    atomic.Bool
	connGauge *telemetry.Gauge
}

// cliConn is one pool slot: at most one live connection generation,
// plus the reconnect backoff state that outlives generations.
type cliConn struct {
	p       *pool
	mu      sync.Mutex
	cur     *connGen
	retryAt time.Time
	backoff time.Duration
}

// connGen is one connection's lifetime: the writer/reader goroutine
// pair, the pending-call index for correlation-id demux, and a done
// channel closed exactly once when the generation dies.
type connGen struct {
	p         *pool
	nc        net.Conn
	writeCh   chan *[]byte
	done      chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	dead    bool
}

// call is one request's pooled handle: where its response is delivered,
// and the timer that bounds the wait for it, Reset per call.
type call struct {
	ch    chan callRes
	timer *time.Timer
}

type callRes struct {
	f   Frame
	buf *[]byte
	err error
}

// callPool recycles call handles. The ownership protocol makes reuse
// safe: a call is delivered to at most once (pending lookup+delete is
// atomic under connGen.mu), and the handle returns to the pool only
// after its single delivery was consumed or provably never claimed, and
// with its timer stopped and its channel empty.
var callPool = sync.Pool{New: func() any { return &call{ch: make(chan callRes, 1)} }}

// get returns the slot's live generation, dialing a fresh connection
// when there is none. Repeated dial failures open the backoff window,
// during which calls fail immediately.
func (s *cliConn) get() (*connGen, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		select {
		case <-s.cur.done:
			s.cur = nil
		default:
			return s.cur, nil
		}
	}
	now := time.Now()
	if now.Before(s.retryAt) {
		return nil, fmt.Errorf("%w: %s in reconnect backoff", ErrUnavailable, s.p.addr)
	}
	nc, err := net.DialTimeout("tcp", s.p.addr, dialTimeout)
	if err != nil {
		if s.backoff == 0 {
			s.backoff = 50 * time.Millisecond
		} else {
			s.backoff *= 2
			if s.backoff > maxBackoff {
				s.backoff = maxBackoff
			}
		}
		s.retryAt = time.Now().Add(s.backoff)
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, s.p.addr, err)
	}
	s.backoff, s.retryAt = 0, time.Time{}
	g := &connGen{
		p:       s.p,
		nc:      nc,
		writeCh: make(chan *[]byte, writeQueue),
		done:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	if s.p.connGauge != nil {
		s.p.connGauge.Add(1)
	}
	go g.writer()
	go g.reader()
	s.cur = g
	return g, nil
}

// fail kills the generation: wakes the goroutine pair, fails every
// pending call with err, and refuses new registrations.
func (g *connGen) fail(err error) {
	g.closeOnce.Do(func() {
		g.mu.Lock()
		g.dead = true
		pending := g.pending
		g.pending = nil
		g.mu.Unlock()
		close(g.done)
		g.nc.Close()
		if !errors.Is(err, ErrUnavailable) {
			err = fmt.Errorf("%w: %s: %v", ErrUnavailable, g.p.addr, err)
		}
		for _, cl := range pending {
			cl.ch <- callRes{err: err}
		}
		if g.p.connGauge != nil {
			g.p.connGauge.Add(-1)
		}
	})
}

// writer sends request frames, many pipelined requests per write (see
// writeLoop), until the generation dies.
func (g *connGen) writer() {
	if err := writeLoop(bufio.NewWriterSize(g.nc, 64<<10), g.writeCh, g.done); err != nil {
		g.fail(err)
	}
}

// reader demultiplexes response frames to their waiting calls by
// correlation id. A frame whose call was abandoned (request timeout)
// is dropped; its buffer goes straight back to the pool.
func (g *connGen) reader() {
	br := bufio.NewReaderSize(g.nc, 64<<10)
	for {
		bp, err := readFrameBody(br)
		if err != nil {
			g.fail(err)
			return
		}
		f, err := parseBody(*bp)
		if err != nil {
			codec.PutBuf(bp)
			g.fail(err)
			return
		}
		g.mu.Lock()
		cl, okc := g.pending[f.CorrID]
		if okc {
			delete(g.pending, f.CorrID)
		}
		g.mu.Unlock()
		if !okc {
			codec.PutBuf(bp)
			continue
		}
		cl.ch <- callRes{f: f, buf: bp}
	}
}

// pick returns the connection a call goes out on: the first slot's,
// unless its write queue is full, and then the next slot's, dialled if
// need be. Calls that share a connection share its writer's writes, so
// filling the first connection before opening another is what puts
// concurrent calls in one syscall. A slot that fails (in reconnect
// backoff, or a refused dial) fails the call.
func (p *pool) pick() (*connGen, error) {
	last := len(p.conns) - 1
	for _, s := range p.conns[:last] {
		g, err := s.get()
		if err != nil || len(g.writeCh) < writeQueue {
			return g, err
		}
	}
	return p.conns[last].get()
}

// roundTrip sends one request over the pool and waits for its
// response. extraWait extends the request timeout by any long-poll
// time the request itself asks the server to block for.
func (p *pool) roundTrip(op byte, queueName, trace string, extraWait time.Duration, payload func(*codec.Enc)) (callRes, error) {
	if p.closed.Load() {
		return callRes{}, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	g, err := p.pick()
	if err != nil {
		return callRes{}, err
	}
	cl := callPool.Get().(*call)
	g.mu.Lock()
	if g.dead {
		g.mu.Unlock()
		callPool.Put(cl)
		return callRes{}, fmt.Errorf("%w: %s: connection lost", ErrUnavailable, p.addr)
	}
	g.nextID++
	id := g.nextID
	g.pending[id] = cl
	g.mu.Unlock()

	body := encodeRequest(op, id, queueName, trace, payload)
	select {
	case g.writeCh <- body:
	case <-g.done:
		codec.PutBuf(body)
		// The generation failed; fail() either already delivered the
		// error to cl or is about to — consume it so cl can be reused.
		res := <-cl.ch
		callPool.Put(cl)
		if res.err == nil {
			res.err = fmt.Errorf("%w: %s: connection lost", ErrUnavailable, p.addr)
		}
		return callRes{}, res.err
	}

	timeout := requestTimeout
	if extraWait > 0 {
		timeout += extraWait
	}
	if cl.timer == nil {
		cl.timer = time.NewTimer(timeout)
	} else {
		cl.timer.Reset(timeout)
	}
	select {
	case res := <-cl.ch:
		if !cl.timer.Stop() {
			// It fired as the response came in. Under go.mod's go 1.22
			// timer semantics the tick stays buffered in C: drain it, or
			// the handle's next call would time out at once.
			<-cl.timer.C
		}
		callPool.Put(cl)
		return res, res.err
	case <-cl.timer.C:
		g.mu.Lock()
		_, still := g.pending[id]
		if still {
			delete(g.pending, id)
		}
		g.mu.Unlock()
		if !still {
			// The reader (or fail) claimed the call before we could
			// unregister; its delivery is imminent — consume it so the
			// pooled handle is clean.
			res := <-cl.ch
			if res.buf != nil {
				codec.PutBuf(res.buf)
			}
		}
		callPool.Put(cl)
		return callRes{}, fmt.Errorf("%w: %s %s timed out after %s", ErrUnavailable, opNames[op], p.addr, timeout)
	}
}

// do performs one round trip and hands back a decoder positioned at
// the OK payload plus the pooled response buffer the decoder reads
// from. The caller extracts its results and releases the buffer with
// codec.PutBuf; on error there is nothing to release.
func (c *Client) do(op byte, queueName string, extraWait time.Duration, payload func(*codec.Enc)) (codec.Dec, *[]byte, error) {
	res, err := c.p.roundTrip(op, queueName, c.trace, extraWait, payload)
	if err != nil {
		return codec.Dec{}, nil, err
	}
	d := codec.Dec{B: res.f.Payload}
	status := d.Byte()
	if d.Err != nil || res.f.Op != op {
		codec.PutBuf(res.buf)
		return codec.Dec{}, nil, fmt.Errorf("%w: %s: corrupt response", ErrUnavailable, c.p.addr)
	}
	if status != statusOK {
		msg := d.Str()
		codec.PutBuf(res.buf)
		return codec.Dec{}, nil, statusErr(status, msg)
	}
	return d, res.buf, nil
}

// finish releases the response buffer and converts any payload-decode
// underflow into a transport error (a malformed success payload means
// the peer is broken, not that the queue answered).
func (c *Client) finish(d *codec.Dec, buf *[]byte) error {
	err := d.Err
	codec.PutBuf(buf)
	if err != nil {
		return fmt.Errorf("%w: %s: corrupt response payload", ErrUnavailable, c.p.addr)
	}
	return nil
}

// invoke is the one call path of every op: a round trip whose request
// payload enc writes and whose answer dec reads (nil for an op that
// answers nothing).
func invoke[T any](c *Client, op byte, queueName string, extraWait time.Duration, enc func(*codec.Enc), dec func(*codec.Dec) T) (T, error) {
	var zero T
	d, buf, err := c.do(op, queueName, extraWait, enc)
	if err != nil {
		return zero, err
	}
	v := zero
	if dec != nil {
		v = dec(&d)
	}
	if err := c.finish(&d, buf); err != nil {
		return zero, err
	}
	return v, nil
}

// readIDs decodes a batch answer of n message ids. A batch answer is
// positional and callers index it by their own request, so one without
// exactly an item per request item fails the call as a corrupt payload
// (DeleteMessageBatch checks its verdicts the same way).
func readIDs(n int) func(*codec.Dec) []string {
	return func(d *codec.Dec) []string {
		ids := readStrings(d)
		if len(ids) != n {
			d.Fail()
		}
		return ids
	}
}

// invokeErr is invoke for the ops that answer with nothing but success.
func (c *Client) invokeErr(op byte, queueName string, enc func(*codec.Enc)) error {
	_, err := invoke[struct{}](c, op, queueName, 0, enc, nil)
	return err
}

// --- queue.API ---

// CreateQueue registers a queue on the remote service.
func (c *Client) CreateQueue(name string) error {
	return c.invokeErr(OpCreateQueue, name, nil)
}

// DeleteQueue removes a queue and its messages.
func (c *Client) DeleteQueue(name string) error {
	return c.invokeErr(OpDeleteQueue, name, nil)
}

// ListQueues returns the remote queue names, or nil when the request
// fails (the interface carries no error return, matching Service).
func (c *Client) ListQueues() []string {
	names, _ := invoke(c, OpListQueues, "", 0, nil, readStrings)
	return names
}

// SendMessage enqueues one body as a single frame.
func (c *Client) SendMessage(queueName string, body []byte) (string, error) {
	return invoke(c, OpSend, queueName, 0,
		func(e *codec.Enc) { e.B = append(e.B, body...) },
		(*codec.Dec).Str)
}

// SendMessageBatch enqueues up to queue.MaxBatch bodies in one frame,
// billed as one request by the remote service.
func (c *Client) SendMessageBatch(queueName string, bodies [][]byte) ([]string, error) {
	return invoke(c, OpSendBatch, queueName, 0,
		func(e *codec.Enc) {
			e.U64(uint64(len(bodies)))
			for _, b := range bodies {
				e.Bytes(b)
			}
		},
		readIDs(len(bodies)))
}

// ReceiveMessage pops one visible message without waiting.
func (c *Client) ReceiveMessage(queueName string, visibility time.Duration) (queue.Message, bool, error) {
	return c.ReceiveMessageWait(queueName, visibility, 0)
}

// ReceiveMessageWait pops one message, long-polling up to wait.
func (c *Client) ReceiveMessageWait(queueName string, visibility, wait time.Duration) (queue.Message, bool, error) {
	msgs, err := c.ReceiveMessageBatch(queueName, visibility, 1, wait)
	if err != nil || len(msgs) == 0 {
		return queue.Message{}, false, err
	}
	return msgs[0], true, nil
}

// ReceiveMessageBatch receives up to max messages in one frame. The
// request deadline stretches by wait so a long poll is not mistaken for
// a dead connection.
func (c *Client) ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	return invoke(c, OpReceive, queueName, wait,
		func(e *codec.Enc) {
			e.I64(int64(visibility))
			e.I64(int64(wait))
			e.U64(uint64(max))
		},
		readMessages)
}

// DeleteMessage acknowledges one message by receipt handle.
func (c *Client) DeleteMessage(queueName, receiptHandle string) error {
	return c.invokeErr(OpDelete, queueName, func(e *codec.Enc) { e.Str(receiptHandle) })
}

// DeleteMessageBatch acknowledges up to queue.MaxBatch messages in one
// frame; per-receipt verdicts come back positionally, nil for success.
func (c *Client) DeleteMessageBatch(queueName string, receipts []string) ([]error, error) {
	return invoke(c, OpDeleteBatch, queueName, 0,
		func(e *codec.Enc) { appendStrings(e, receipts) },
		func(d *codec.Dec) []error {
			n := d.Len()
			if n != len(receipts) {
				d.Fail()
			}
			results := make([]error, 0, n)
			for i := 0; i < n && d.Err == nil; i++ {
				if code := d.Byte(); code == statusOK {
					results = append(results, nil)
				} else {
					results = append(results, statusErr(code, d.Str()))
				}
			}
			return results
		})
}

// ChangeVisibility extends or shrinks an in-flight message's lease.
func (c *Client) ChangeVisibility(queueName, receiptHandle string, dur time.Duration) error {
	return c.invokeErr(OpChangeVisibility, queueName,
		func(e *codec.Enc) {
			e.Str(receiptHandle)
			e.I64(int64(dur))
		})
}

// ApproximateCount reports visible and in-flight message counts.
func (c *Client) ApproximateCount(queueName string) (visible, inflight int, err error) {
	n, err := invoke(c, OpCount, queueName, 0, nil,
		func(d *codec.Dec) [2]int { return [2]int{int(d.U64()), int(d.U64())} })
	return n[0], n[1], err
}

// Purge removes every message from a queue.
func (c *Client) Purge(queueName string) error {
	return c.invokeErr(OpPurge, queueName, nil)
}

// readCount decodes a billed-request counter.
func readCount(d *codec.Dec) int64 { return int64(d.U64()) }

// APIRequests returns the remote billed-request total, 0 on failure
// (the interface carries no error return, matching Service).
func (c *Client) APIRequests() int64 {
	n, _ := invoke(c, OpRequests, "", 0, nil, readCount)
	return n
}

// APIRequestsFor returns the billed calls addressed to one queue.
func (c *Client) APIRequestsFor(queueName string) int64 {
	n, _ := invoke(c, OpRequestsFor, queueName, 0, nil, readCount)
	return n
}

// --- queue.Transferrer ---

// TransferIn enqueues one body with prior deliveries preserved: a
// one-item TransferInBatch, whose answer carries exactly one id or fails.
func (c *Client) TransferIn(queueName string, body []byte, receives int) (string, error) {
	ids, err := c.TransferInBatch(queueName, []queue.TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// TransferInBatch streams up to queue.MaxBatch count-preserving items
// in one frame — the batched transfer path drain-and-forward migration
// uses. With no AdminToken the call fails locally: it cannot possibly
// succeed, and the migrator probes this before it moves a queue.
func (c *Client) TransferInBatch(queueName string, items []queue.TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	if c.p.opt.AdminToken == "" {
		return nil, fmt.Errorf("wire: transfer into %s: client has no admin token: %w", queueName, queue.ErrNotPrivileged)
	}
	return invoke(c, OpTransfer, queueName, 0,
		func(e *codec.Enc) {
			e.Str(c.p.opt.AdminToken)
			e.U64(uint64(len(items)))
			for _, it := range items {
				e.Bytes(it.Body)
				e.I64(int64(it.Receives))
			}
		},
		readIDs(len(items)))
}
