package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

// Op classes the interposer records. A hop may turn one queue.API
// method into another of the same class (a single receive served as a
// batch of one), so self times subtract per class, not per method.
const (
	OpSend       = "send"
	OpRecv       = "recv"
	OpDelete     = "delete"
	OpVisibility = "visibility"
	OpCount      = "count"
	OpAdmin      = "admin"
	OpTransfer   = "transfer"
)

// Probe is the shared state of one interposition point: every
// trace-scoped view wrapped from the same point records here.
type Probe struct {
	Rec *Recorder
	// SentBytes totals message-body bytes accepted by send calls.
	SentBytes atomic.Int64
	// Stale counts receipt operations rejected with ErrStaleReceipt,
	// per-entry rejections of batch deletes included.
	Stale atomic.Int64
	// Redelivered counts received messages whose delivery count was
	// already above one.
	Redelivered atomic.Int64
}

// NewProbe creates the interposition point for one layer instance.
func NewProbe(layer, node string, epoch time.Time) *Probe {
	return &Probe{Rec: NewRecorder(layer, node, epoch)}
}

// timed is the queue.API face of the interposer: it forwards every call
// unchanged and records one span around it.
type timed struct {
	inner queue.API
	p     *Probe
	trace string
}

func (t *timed) done(op, queueName string, start time.Time, msgs int, err error) {
	if errors.Is(err, queue.ErrStaleReceipt) {
		t.p.Stale.Add(1)
	}
	t.p.Rec.Add(t.trace, op, queueName, start, msgs, err)
}

func (t *timed) CreateQueue(name string) error {
	start := time.Now()
	err := t.inner.CreateQueue(name)
	t.done(OpAdmin, name, start, 0, err)
	return err
}

func (t *timed) DeleteQueue(name string) error {
	start := time.Now()
	err := t.inner.DeleteQueue(name)
	t.done(OpAdmin, name, start, 0, err)
	return err
}

func (t *timed) ListQueues() []string {
	start := time.Now()
	out := t.inner.ListQueues()
	t.done(OpAdmin, "", start, 0, nil)
	return out
}

func (t *timed) SendMessage(queueName string, body []byte) (string, error) {
	start := time.Now()
	id, err := t.inner.SendMessage(queueName, body)
	if err == nil {
		t.p.SentBytes.Add(int64(len(body)))
	}
	t.done(OpSend, queueName, start, 1, err)
	return id, err
}

func (t *timed) SendMessageBatch(queueName string, bodies [][]byte) ([]string, error) {
	start := time.Now()
	ids, err := t.inner.SendMessageBatch(queueName, bodies)
	if err == nil {
		n := 0
		for _, b := range bodies {
			n += len(b)
		}
		t.p.SentBytes.Add(int64(n))
	}
	t.done(OpSend, queueName, start, len(bodies), err)
	return ids, err
}

func (t *timed) received(msgs ...queue.Message) {
	for _, m := range msgs {
		if m.Receives > 1 {
			t.p.Redelivered.Add(1)
		}
	}
}

func (t *timed) ReceiveMessage(queueName string, visibility time.Duration) (queue.Message, bool, error) {
	start := time.Now()
	m, ok, err := t.inner.ReceiveMessage(queueName, visibility)
	n := 0
	if ok {
		n = 1
		t.received(m)
	}
	t.done(OpRecv, queueName, start, n, err)
	return m, ok, err
}

func (t *timed) ReceiveMessageWait(queueName string, visibility, wait time.Duration) (queue.Message, bool, error) {
	start := time.Now()
	m, ok, err := t.inner.ReceiveMessageWait(queueName, visibility, wait)
	n := 0
	if ok {
		n = 1
		t.received(m)
	}
	t.done(OpRecv, queueName, start, n, err)
	return m, ok, err
}

func (t *timed) ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	start := time.Now()
	msgs, err := t.inner.ReceiveMessageBatch(queueName, visibility, max, wait)
	t.received(msgs...)
	t.done(OpRecv, queueName, start, len(msgs), err)
	return msgs, err
}

func (t *timed) DeleteMessage(queueName, receiptHandle string) error {
	start := time.Now()
	err := t.inner.DeleteMessage(queueName, receiptHandle)
	t.done(OpDelete, queueName, start, 1, err)
	return err
}

func (t *timed) DeleteMessageBatch(queueName string, receipts []string) ([]error, error) {
	start := time.Now()
	results, err := t.inner.DeleteMessageBatch(queueName, receipts)
	for _, r := range results {
		if errors.Is(r, queue.ErrStaleReceipt) {
			t.p.Stale.Add(1)
		}
	}
	t.done(OpDelete, queueName, start, len(receipts), err)
	return results, err
}

func (t *timed) ChangeVisibility(queueName, receiptHandle string, d time.Duration) error {
	start := time.Now()
	err := t.inner.ChangeVisibility(queueName, receiptHandle, d)
	t.done(OpVisibility, queueName, start, 1, err)
	return err
}

func (t *timed) ApproximateCount(queueName string) (visible, inflight int, err error) {
	start := time.Now()
	visible, inflight, err = t.inner.ApproximateCount(queueName)
	t.done(OpCount, queueName, start, 0, err)
	return visible, inflight, err
}

func (t *timed) Purge(queueName string) error {
	start := time.Now()
	err := t.inner.Purge(queueName)
	t.done(OpAdmin, queueName, start, 0, err)
	return err
}

func (t *timed) APIRequests() int64 {
	start := time.Now()
	n := t.inner.APIRequests()
	t.done(OpAdmin, "", start, 0, nil)
	return n
}

func (t *timed) APIRequestsFor(queueName string) int64 {
	start := time.Now()
	n := t.inner.APIRequestsFor(queueName)
	t.done(OpAdmin, queueName, start, 0, nil)
	return n
}

// The optional facets of queue.API, forwarded one struct per facet so a
// wrapper can be composed with exactly the facets of what it wraps.

type transferFacet struct {
	t  *timed
	tr queue.Transferrer
}

func (f transferFacet) TransferIn(queueName string, body []byte, receives int) (string, error) {
	start := time.Now()
	id, err := f.tr.TransferIn(queueName, body, receives)
	f.t.done(OpTransfer, queueName, start, 1, err)
	return id, err
}

func (f transferFacet) TransferInBatch(queueName string, items []queue.TransferItem) ([]string, error) {
	start := time.Now()
	ids, err := f.tr.TransferInBatch(queueName, items)
	f.t.done(OpTransfer, queueName, start, len(items), err)
	return ids, err
}

type traceFacet struct {
	t  *timed
	ts queue.TraceScoper
}

// WithTrace wraps the scoped view too: the broker runs each job over
// one, so an unwrapped view would take the job's traffic out of the
// measurement.
func (f traceFacet) WithTrace(traceID string) queue.API {
	return mustWrap(f.ts.WithTrace(traceID), f.t.p, traceID)
}

// Depth, liveness and recovery are unbilled control calls; they are
// forwarded untimed.

type depthFacet struct{ d queue.DepthReporter }

func (f depthFacet) QueueDepth(queueName string) (visible, inflight int, err error) {
	return f.d.QueueDepth(queueName)
}

type pingFacet struct{ p queue.Pinger }

func (f pingFacet) Ping() error { return f.p.Ping() }

type recoverFacet struct{ r queue.Recoverer }

func (f recoverFacet) Recover() error { return f.r.Recover() }

// Facet sets of the three queue.API implementations the benchmark
// interposes on. A Go type implements an interface statically, so each
// facet combination needs its own composed type; the two below are the
// ones that exist in the repo (router, wire client and their scoped
// views; the in-process service).
const (
	fTransfer = 1 << iota
	fTrace
	fDepth
	fPing
	fRecover
)

// Wrap returns inner behind a timing interposer that records to p and
// offers exactly inner's optional facets, so that
// queue.Capabilities(Wrap(x)) reports the same set as
// queue.Capabilities(x) and the traced program keeps its trace
// propagation, count-preserving transfer, depth probes and health
// pings. A facet combination no implementation has is an error.
func Wrap(inner queue.API, p *Probe) (queue.API, error) { return wrap(inner, p, "") }

func wrap(inner queue.API, p *Probe, trace string) (queue.API, error) {
	t := &timed{inner: inner, p: p, trace: trace}
	caps := queue.Capabilities(inner)
	mask := 0
	if caps.Transfer != nil {
		mask |= fTransfer
	}
	if caps.Trace != nil {
		mask |= fTrace
	}
	if caps.Depth != nil {
		mask |= fDepth
	}
	if caps.Ping != nil {
		mask |= fPing
	}
	if caps.Recover != nil {
		mask |= fRecover
	}
	switch mask {
	case 0:
		return t, nil
	case fTransfer | fTrace:
		return struct {
			*timed
			transferFacet
			traceFacet
		}{t, transferFacet{t, caps.Transfer}, traceFacet{t, caps.Trace}}, nil
	case fTransfer | fDepth | fPing | fRecover:
		return struct {
			*timed
			transferFacet
			depthFacet
			pingFacet
			recoverFacet
		}{t, transferFacet{t, caps.Transfer}, depthFacet{caps.Depth}, pingFacet{caps.Ping}, recoverFacet{caps.Recover}}, nil
	}
	return nil, fmt.Errorf("harness: no interposer for the facet set of %T (mask %05b)", inner, mask)
}

// mustWrap is wrap for a scoped view of something Wrap already
// accepted: the view has its parent's facets, so failure is a bug.
func mustWrap(inner queue.API, p *Probe, trace string) queue.API {
	w, err := wrap(inner, p, trace)
	if err != nil {
		panic(err)
	}
	return w
}
