package wire

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("wire: server closed")

// maxConcurrent caps in-flight handlers per connection; excess frames
// wait in the reader, applying backpressure through the transport
// instead of unbounded goroutine growth.
const maxConcurrent = 256

// Server serves the wire protocol over a listener, dispatching every
// frame to a queue.API — a local Service or a shard router, the same
// backends HTTPHandler fronts. One Server may serve many listeners.
type Server struct {
	Service queue.API
	// AdminTokens provisions the privileged transfer opcode with the
	// same semantics as HTTPHandler: requests carry one token, any
	// provisioned token is accepted (rotation), and no provisioned
	// tokens means every transfer is rejected.
	AdminTokens []string
	// Metrics, when set, registers wire_op_ns{op=...} latency
	// histograms, a wire_conns open-connection gauge, and a
	// wire_frames counter.
	Metrics *telemetry.Registry

	initOnce sync.Once
	met      *serverMetrics

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*srvConn]struct{}
	closed bool
}

type serverMetrics struct {
	ops    map[byte]*telemetry.Histogram
	conns  *telemetry.Gauge
	frames *telemetry.Counter
}

func (s *Server) init() {
	s.initOnce.Do(func() {
		s.lns = make(map[net.Listener]struct{})
		s.conns = make(map[*srvConn]struct{})
		if s.Metrics != nil {
			m := &serverMetrics{
				ops:    make(map[byte]*telemetry.Histogram, len(opNames)),
				conns:  s.Metrics.Gauge("wire_conns"),
				frames: s.Metrics.Counter("wire_frames"),
			}
			for op, name := range opNames {
				m.ops[op] = s.Metrics.Histogram(telemetry.Label("wire_op_ns", "op", name))
			}
			s.met = m
		}
	})
}

// Serve accepts connections on ln until the listener fails or the
// server is closed. It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.init()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		c := &srvConn{
			srv:     s,
			nc:      nc,
			br:      bufio.NewReaderSize(nc, 64<<10),
			bw:      bufio.NewWriterSize(nc, 64<<10),
			writeCh: make(chan *[]byte, 64),
			done:    make(chan struct{}),
			sem:     make(chan struct{}, maxConcurrent),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		if s.met != nil {
			s.met.conns.Add(1)
		}
		go c.serve()
	}
}

// Close stops every listener and tears down every open connection.
func (s *Server) Close() error {
	s.init()
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	return nil
}

// srvConn is one accepted connection: a reader loop spawning a handler
// goroutine per request frame, and a writer goroutine serializing
// response frames with coalesced flushes.
type srvConn struct {
	srv       *Server
	nc        net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	writeCh   chan *[]byte
	done      chan struct{}
	closeOnce sync.Once
	sem       chan struct{}
}

func (c *srvConn) shutdown() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.nc.Close()
	})
}

func (c *srvConn) serve() {
	defer func() {
		c.shutdown()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		if c.srv.met != nil {
			c.srv.met.conns.Add(-1)
		}
	}()
	go c.writer()
	for {
		bp, err := readFrameBody(c.br)
		if err != nil {
			return
		}
		f, err := parseBody(*bp)
		if err != nil {
			// Framing is broken; there is no way to answer (the
			// correlation id may not have decoded), so drop the conn
			// and let the client's reconnect discipline take over.
			codec.PutBuf(bp)
			return
		}
		if c.srv.met != nil {
			c.srv.met.frames.Inc()
		}
		select {
		case c.sem <- struct{}{}:
		case <-c.done:
			codec.PutBuf(bp)
			return
		}
		go func() {
			defer func() { <-c.sem }()
			c.handle(f, bp)
		}()
	}
}

// writer drains response frames, coalescing every frame already queued
// into one flush — under pipelining this batches many small responses
// per syscall.
func (c *srvConn) writer() {
	for {
		select {
		case bp := <-c.writeCh:
			err := writeFrame(c.bw, *bp)
			codec.PutBuf(bp)
			for err == nil {
				select {
				case bp := <-c.writeCh:
					err = writeFrame(c.bw, *bp)
					codec.PutBuf(bp)
					continue
				default:
				}
				break
			}
			if err == nil {
				err = c.bw.Flush()
			}
			if err != nil {
				c.shutdown()
				return
			}
		case <-c.done:
			return
		}
	}
}

// handle dispatches one request frame and queues its response. It owns
// reqBuf (the frame's backing buffer) until the service call returns —
// OpSend payloads alias it — and releases it before the response is
// encoded.
func (c *srvConn) handle(f Frame, reqBuf *[]byte) {
	svc := queue.WithTrace(c.srv.Service, f.Trace)
	var start time.Time
	if c.srv.met != nil {
		start = time.Now()
	}

	rp := codec.GetBuf()
	e := codec.Enc{B: (*rp)[:0]}
	e.Byte(f.Op)
	e.U64(f.CorrID)
	e.Str("") // queue: responses carry no routing fields
	e.Str("") // trace
	c.dispatch(svc, f, &e)
	codec.PutBuf(reqBuf)
	*rp = e.B

	if c.srv.met != nil {
		c.srv.met.ops[f.Op].Observe(time.Since(start))
	}
	select {
	case c.writeCh <- rp:
	case <-c.done:
		codec.PutBuf(rp)
	}
}

// fail encodes an error response: status code + message.
func fail(e *codec.Enc, err error) {
	e.Byte(statusFor(err))
	e.Str(err.Error())
}

// ok encodes the success status; the caller appends the result payload.
func ok(e *codec.Enc) { e.Byte(statusOK) }

// reply encodes the whole answer of an op that returns only an error.
func reply(e *codec.Enc, err error) {
	if err != nil {
		fail(e, err)
		return
	}
	ok(e)
}

// dispatch decodes the op-specific payload, invokes the service, and
// encodes the result.
func (c *srvConn) dispatch(svc queue.API, f Frame, e *codec.Enc) {
	d := codec.Dec{B: f.Payload}
	switch f.Op {
	case OpCreateQueue:
		reply(e, svc.CreateQueue(f.Queue))
	case OpDeleteQueue:
		reply(e, svc.DeleteQueue(f.Queue))
	case OpListQueues:
		names := svc.ListQueues()
		ok(e)
		appendStrings(e, names)
	case OpSend:
		id, err := svc.SendMessage(f.Queue, d.Rest())
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		e.Str(id)
	case OpSendBatch:
		n := d.Len()
		bodies := make([][]byte, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			bodies = append(bodies, d.Bytes())
		}
		if d.Err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		ids, err := svc.SendMessageBatch(f.Queue, bodies)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		appendStrings(e, ids)
	case OpReceive:
		visibility := time.Duration(d.I64())
		wait := time.Duration(d.I64())
		max := int(d.U64())
		if d.Err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		msgs, err := svc.ReceiveMessageBatch(f.Queue, visibility, max, wait)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		appendMessages(e, msgs)
	case OpDelete:
		receipt := d.Str()
		if d.Err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		reply(e, svc.DeleteMessage(f.Queue, receipt))
	case OpDeleteBatch:
		receipts := readStrings(&d)
		if d.Err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		results, err := svc.DeleteMessageBatch(f.Queue, receipts)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		e.U64(uint64(len(results)))
		for _, res := range results {
			if res == nil {
				e.Byte(statusOK)
				continue
			}
			e.Byte(statusFor(res))
			e.Str(res.Error())
		}
	case OpChangeVisibility:
		receipt := d.Str()
		dur := time.Duration(d.I64())
		if d.Err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		reply(e, svc.ChangeVisibility(f.Queue, receipt, dur))
	case OpCount:
		visible, inflight, err := svc.ApproximateCount(f.Queue)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		e.U64(uint64(visible))
		e.U64(uint64(inflight))
	case OpPurge:
		reply(e, svc.Purge(f.Queue))
	case OpRequests:
		ok(e)
		e.U64(uint64(svc.APIRequests()))
	case OpRequestsFor:
		ok(e)
		e.U64(uint64(svc.APIRequestsFor(f.Queue)))
	case OpTransfer:
		token := d.Str()
		n := d.Len()
		items := make([]queue.TransferItem, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			it := queue.TransferItem{Body: d.Bytes()}
			it.Receives = int(d.I64())
			items = append(items, it)
		}
		if d.Err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		if !queue.TokenAccepted(c.srv.AdminTokens, token) {
			// One answer for "not provisioned", "no token", and "wrong
			// token", exactly like the HTTP transfer endpoint.
			fail(e, queue.ErrNotPrivileged)
			return
		}
		tr, okTr := svc.(queue.Transferrer)
		if !okTr {
			fail(e, queue.ErrNotPrivileged)
			return
		}
		ids, err := tr.TransferInBatch(f.Queue, items)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		appendStrings(e, ids)
	default:
		fail(e, ErrCorruptFrame)
	}
}
