package queue

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/telemetry"
)

// HTTPHandler exposes a Service through an SQS-shaped REST interface —
// "a REST-based web service interface that enables any HTTP capable
// client to use it" (Section 2.1.1):
//
//	GET    /q                                list queues ({"queues": [...]})
//	GET    /requests                         total billed requests ({"requests": n})
//	GET    /wire                             advertised wire endpoint ({"addr": "host:port"}; 404 when none)
//	PUT    /q/{name}                         create queue
//	DELETE /q/{name}                         delete queue
//	GET    /q/{name}/count                   approximate counts (JSON)
//	GET    /q/{name}/requests                billed requests for one queue
//	POST   /q/{name}/purge                   drop every message
//	POST   /q/{name}/messages                send (body = message)
//	GET    /q/{name}/messages?visibility=30s receive (JSON; 204 when empty)
//	       &wait=1s                          … long poll up to wait
//	       &max=10                           … batch receive ({"messages": [...]})
//	POST   /q/{name}/messages/batch          batch send ({"bodies": [...]} → {"ids": [...]})
//	POST   /q/{name}/messages/batchdelete    batch delete ({"receipts": [...]} → {"errors": [...]})
//	DELETE /q/{name}/messages/{receipt}      delete by receipt handle
//	POST   /q/{name}/messages/{receipt}/visibility?d=1m  change visibility
//	POST   /q/{name}/transfer                privileged count-preserving transfer
//	                                         ({"items": [{"body","receives"}]} → {"ids": [...]})
//
// Queue names and receipt handles are path-escaped on the wire, so a
// placement-grouped name like "job-1/tasks" stays one path segment
// ("job-1%2Ftasks").
//
// The transfer endpoint is the privileged admin surface: it is served
// only when AdminTokens is configured AND the request carries one of
// them as a bearer token; every other caller gets 403 (ErrNotPrivileged
// on the client side). Everything else is the public client path.
//
// Service is any queue.API implementation — a local Service or a
// shard router — so one handler serves both a single queue node and a
// sharded front.
type HTTPHandler struct {
	Service API
	// AdminTokens provisions the privileged transfer endpoint: requests
	// must present "Authorization: Bearer <token>" with any listed token.
	// Empty leaves the endpoint disabled (always 403) — the privileged
	// surface must be opted into, never open by default. More than one
	// entry is the rotation mechanism: provision old+new everywhere,
	// switch clients to the new one, then drop the old — no fleet-wide
	// restart window in which transfers 403. Order does not matter for
	// acceptance; clients present exactly one token (by convention the
	// newest).
	AdminTokens []string

	// WireAddr, when set, is advertised at GET /wire: the address of
	// the binary wire-protocol listener serving the same queue
	// namespace. Clients that understand the wire face (wire.DiscoverAddr,
	// the shard router's backend probe) upgrade to it; everyone else
	// keeps speaking JSON. Empty disables the advertisement (404).
	WireAddr string

	// Every request is tagged with a trace ID: the telemetry.TraceHeader
	// request header when present (propagated from an upstream hop), a
	// freshly generated one otherwise. The ID is echoed on the response
	// and handed to the Service when it implements TraceScoper, so a
	// sharded front forwards it to the owning shard.

	// SlowRequest, when > 0, logs any request slower than it to the
	// process default logger, keyed by trace ID — the "why was this call
	// slow" breadcrumb that works across hops because every hop logs the
	// same ID.
	SlowRequest time.Duration
	// Metrics, when set, records whole-request HTTP latency
	// (queue_http_ns) including JSON marshalling — the server-side view
	// a remote client actually experiences.
	Metrics *telemetry.Registry

	initOnce sync.Once
	mux      *http.ServeMux
	httpNS   *telemetry.Histogram
}

// wireMessage is the receive-response body.
type wireMessage struct {
	ID       string `json:"id"`
	Body     []byte `json:"body"`
	Receipt  string `json:"receipt"`
	Receives int    `json:"receives"`
}

func toWire(m Message) wireMessage {
	return wireMessage{ID: m.ID, Body: m.Body, Receipt: m.ReceiptHandle, Receives: m.Receives}
}

func (wm wireMessage) message() Message {
	return Message{ID: wm.ID, Body: wm.Body, ReceiptHandle: wm.Receipt, Receives: wm.Receives}
}

// TokenAccepted reports whether the presented token matches any
// provisioned admin token — the one check behind both the HTTP transfer
// endpoint and the wire transfer opcode. Every candidate is compared in
// constant time with no early exit, so timing reveals neither a match
// nor which entry matched. No provisioned tokens means nothing is
// accepted.
func TokenAccepted(provisioned []string, token string) bool {
	match := 0
	for _, t := range provisioned {
		if t == "" {
			continue
		}
		match |= subtle.ConstantTimeCompare([]byte(token), []byte(t))
	}
	return match == 1
}

// ServeHTTP implements http.Handler: it resolves the request's trace
// ID, echoes it, times the request, and dispatches through the route
// table built by init.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.initOnce.Do(h.init)
	trace := r.Header.Get(telemetry.TraceHeader)
	if trace == "" {
		trace = telemetry.NewTraceID()
	}
	w.Header().Set(telemetry.TraceHeader, trace)
	var start time.Time
	if h.SlowRequest > 0 || h.httpNS != nil {
		start = time.Now()
	}
	h.mux.ServeHTTP(w, r)
	if start.IsZero() {
		return
	}
	elapsed := time.Since(start)
	if h.httpNS != nil {
		h.httpNS.Observe(elapsed)
	}
	if h.SlowRequest > 0 && elapsed >= h.SlowRequest {
		log.Printf("queue: slow request trace=%s %s %s %v", trace, r.Method, r.URL.Path, elapsed)
	}
}

// init builds the route table. ServeMux matches on the escaped path, so
// a queue name containing '/' (a placement group key) or a receipt
// containing '#' travels as one escaped segment and arrives unescaped
// in PathValue; a known path with the wrong method answers 405.
func (h *HTTPHandler) init() {
	if h.Metrics != nil {
		h.httpNS = h.Metrics.Histogram("queue_http_ns")
	}
	h.mux = http.NewServeMux()
	route := func(pattern string, op func(svc API, w http.ResponseWriter, r *http.Request)) {
		h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			// ServeHTTP put the request's trace ID on the response before
			// dispatching; every operation goes through a view of
			// h.Service scoped to it when the backend can carry one
			// (shard.Router, nested HTTPClient) — that is how the ID
			// survives the client → router → shard chain.
			op(WithTrace(h.Service, w.Header().Get(telemetry.TraceHeader)), w, r)
		})
	}
	route("GET /q", serveList)
	route("GET /q/{$}", serveList)
	route("GET /requests", func(svc API, w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]int64{"requests": svc.APIRequests()})
	})
	route("GET /wire", h.serveWire)
	route("PUT /q/{name}", serveCreate)
	route("DELETE /q/{name}", serveDeleteQueue)
	route("GET /q/{name}/count", serveCount)
	route("GET /q/{name}/requests", func(svc API, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]int64{"requests": svc.APIRequestsFor(r.PathValue("name"))})
	})
	route("POST /q/{name}/purge", servePurge)
	route("POST /q/{name}/transfer", h.serveTransfer)
	route("POST /q/{name}/messages", serveSend)
	route("GET /q/{name}/messages", serveReceive)
	route("POST /q/{name}/messages/batch", serveSendBatch)
	route("POST /q/{name}/messages/batchdelete", serveDeleteBatch)
	route("DELETE /q/{name}/messages/{receipt}", serveDelete)
	route("POST /q/{name}/messages/{receipt}/visibility", serveVisibility)
}

func serveList(svc API, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string][]string{"queues": svc.ListQueues()})
}

func (h *HTTPHandler) serveWire(_ API, w http.ResponseWriter, r *http.Request) {
	if h.WireAddr == "" {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, map[string]string{"addr": h.WireAddr})
}

func serveCreate(svc API, w http.ResponseWriter, r *http.Request) {
	err := svc.CreateQueue(r.PathValue("name"))
	if errors.Is(err, ErrQueueExists) {
		w.WriteHeader(http.StatusOK)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// noContent answers an operation that returns only an error: 204 on
// success, the sentinel's status otherwise.
func noContent(w http.ResponseWriter, err error) {
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func serveDeleteQueue(svc API, w http.ResponseWriter, r *http.Request) {
	noContent(w, svc.DeleteQueue(r.PathValue("name")))
}

func serveCount(svc API, w http.ResponseWriter, r *http.Request) {
	visible, inflight, err := svc.ApproximateCount(r.PathValue("name"))
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, map[string]int{"visible": visible, "inflight": inflight})
}

// servePurge drops every message in the queue.
func servePurge(svc API, w http.ResponseWriter, r *http.Request) {
	noContent(w, svc.Purge(r.PathValue("name")))
}

// serveTransfer is the privileged count-preserving enqueue the shard
// migration machinery uses. It requires one of the handler's admin
// tokens; the Service must implement Transferrer (every in-tree
// implementation does).
func (h *HTTPHandler) serveTransfer(svc API, w http.ResponseWriter, r *http.Request) {
	token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || !TokenAccepted(h.AdminTokens, token) {
		// One answer for "endpoint not provisioned", "no token", and
		// "wrong token": the caller learns only that it is not
		// privileged, not which secret would have worked.
		http.Error(w, ErrNotPrivileged.Error(), http.StatusForbidden)
		return
	}
	tr, ok := svc.(Transferrer)
	if !ok {
		http.Error(w, "queue: backend does not support transfers", http.StatusNotImplemented)
		return
	}
	var in struct {
		Items []TransferItem `json:"items"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "queue: bad transfer body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ids, err := tr.TransferInBatch(r.PathValue("name"), in.Items)
	writeIDs(w, ids, err)
}

// writeIDs answers a batch enqueue: 201 with the new message ids.
func writeIDs(w http.ResponseWriter, ids []string, err error) {
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string][]string{"ids": ids})
}

func serveSend(svc API, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := svc.SendMessage(r.PathValue("name"), body)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]string{"id": id})
}

// queryDuration parses an optional duration query parameter (absent = 0),
// answering 400 itself when it does not parse.
func queryDuration(w http.ResponseWriter, r *http.Request, key string) (time.Duration, bool) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, true
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		http.Error(w, "queue: bad "+key+": "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return d, true
}

// serveReceive is the single, long-poll, and (with max) batch receive.
func serveReceive(svc API, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	visibility, ok := queryDuration(w, r, "visibility")
	if !ok {
		return
	}
	wait, ok := queryDuration(w, r, "wait")
	if !ok {
		return
	}
	if v := r.URL.Query().Get("max"); v != "" {
		max, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "queue: bad max: "+err.Error(), http.StatusBadRequest)
			return
		}
		msgs, err := svc.ReceiveMessageBatch(name, visibility, max, wait)
		if err != nil {
			writeQueueError(w, err)
			return
		}
		if len(msgs) == 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		out := make([]wireMessage, len(msgs))
		for i, m := range msgs {
			out[i] = toWire(m)
		}
		writeJSON(w, map[string][]wireMessage{"messages": out})
		return
	}
	m, ok, err := svc.ReceiveMessageWait(name, visibility, wait)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, toWire(m))
}

// serveSendBatch enqueues up to MaxBatch bodies as one billed request.
func serveSendBatch(svc API, w http.ResponseWriter, r *http.Request) {
	var in struct {
		Bodies [][]byte `json:"bodies"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "queue: bad batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ids, err := svc.SendMessageBatch(r.PathValue("name"), in.Bodies)
	writeIDs(w, ids, err)
}

// serveDeleteBatch acknowledges up to MaxBatch receipts as one billed
// request. The response carries one error string per entry ("" = ok) so
// partial failures are visible without failing the call.
func serveDeleteBatch(svc API, w http.ResponseWriter, r *http.Request) {
	var in struct {
		Receipts []string `json:"receipts"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "queue: bad batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	results, err := svc.DeleteMessageBatch(r.PathValue("name"), in.Receipts)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	out := make([]string, len(results))
	for i, e := range results {
		switch {
		case e == nil:
		case errors.Is(e, ErrStaleReceipt):
			// A stable code, not prose: the client maps it back to the
			// sentinel without matching error text.
			out[i] = staleReceiptCode
		default:
			out[i] = e.Error()
		}
	}
	writeJSON(w, map[string][]string{"errors": out})
}

// staleReceiptCode is the wire encoding of ErrStaleReceipt in batch
// delete responses.
const staleReceiptCode = "stale"

func serveDelete(svc API, w http.ResponseWriter, r *http.Request) {
	noContent(w, svc.DeleteMessage(r.PathValue("name"), r.PathValue("receipt")))
}

func serveVisibility(svc API, w http.ResponseWriter, r *http.Request) {
	d, err := time.ParseDuration(r.URL.Query().Get("d"))
	if err != nil {
		http.Error(w, "queue: bad duration: "+err.Error(), http.StatusBadRequest)
		return
	}
	noContent(w, svc.ChangeVisibility(r.PathValue("name"), r.PathValue("receipt"), d))
}

func writeQueueError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSuchQueue):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrStaleReceipt):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrNotPrivileged):
		http.Error(w, err.Error(), http.StatusForbidden)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPClient speaks the HTTPHandler protocol. It implements the full
// queue.API, so a remote queue node is interchangeable with a local
// Service everywhere consumers take the interface — including as a
// shard behind shard.Router.
type HTTPClient struct {
	BaseURL string
	// AdminToken authorizes the privileged transfer endpoint. Leave
	// empty for a purely public client: TransferIn then fails with
	// ErrNotPrivileged (and the shard migrator falls back to a public
	// re-send). When the server rotates tokens (HTTPHandler.AdminTokens)
	// the client presents exactly one — by convention the newest.
	AdminToken string

	trace string // set by WithTrace
}

var (
	_ API         = (*HTTPClient)(nil)
	_ Transferrer = (*HTTPClient)(nil)
	_ TraceScoper = (*HTTPClient)(nil)
)

// WithTrace returns a view of the client whose requests carry traceID
// as the telemetry.TraceHeader, tying its traffic to one trace across
// hops. The copy shares the connection pool; it is cheap enough to
// create per request.
func (c *HTTPClient) WithTrace(traceID string) API {
	scoped := *c
	scoped.trace = traceID
	return &scoped
}

// httpRequestTimeout bounds one round trip, excluding any long-poll wait
// the request itself asks for — the rule wire.Client's requestTimeout
// follows. A shard that accepts a connection and never answers then
// fails the call instead of hanging it.
var httpRequestTimeout = 30 * time.Second

// call is a request that asks the server to block for nothing.
func (c *HTTPClient) call(method, url string, body, out any, want ...int) (int, error) {
	return c.callWait(0, method, url, body, out, want...)
}

// callWait is the client's one request path, so no hop drops the trace
// ID, the token or the deadline: it sends body (nil for none, a []byte
// verbatim, anything else as JSON) stamped with the trace header and the
// admin bearer token when the client has them, gives the server
// httpRequestTimeout plus the long-poll wait the request asks for, maps
// a status outside want to the sentinel it encodes (statusErr), and
// decodes a JSON answer into out when out is non-nil and the response
// has a body. It returns the status so a caller with two good answers
// can tell them apart.
func (c *HTTPClient) callWait(wait time.Duration, method, url string, body, out any, want ...int) (int, error) {
	var rd io.Reader
	var contentType string
	switch b := body.(type) {
	case nil:
	case []byte:
		rd, contentType = bytes.NewReader(b), "application/octet-stream"
	default:
		payload, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		rd, contentType = bytes.NewReader(payload), "application/json"
	}
	// queue.API carries no context yet, so the deadline is the only one.
	ctx, cancel := context.WithTimeout(context.TODO(), httpRequestTimeout+max(wait, 0))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.trace != "" {
		req.Header.Set(telemetry.TraceHeader, c.trace)
	}
	if c.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.AdminToken)
	}
	// The shared tuned client, not http.DefaultClient: the default
	// transport's 2 idle connections per host starve any deployment
	// with real worker concurrency (see package httpx).
	resp, err := httpx.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if !slices.Contains(want, resp.StatusCode) {
		return resp.StatusCode, statusErr(method, url, resp)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// qURL builds the base URL of one queue, path-escaping the name so a
// placement-grouped name ("job-1/tasks") travels as a single segment.
func (c *HTTPClient) qURL(name string) string {
	return c.BaseURL + "/q/" + url.PathEscape(name)
}

// receiptURL builds the URL of one leased message; the receipt is
// path-escaped for the same reason the name is (a router-wrapped receipt
// embeds the queue name and a '#').
func (c *HTTPClient) receiptURL(name, receipt string) string {
	return c.qURL(name) + "/messages/" + url.PathEscape(receipt)
}

// statusErr converts a failed response into an error wrapping the
// sentinel the status code encodes, so errors.Is(err, ErrNoSuchQueue)
// and errors.Is(err, ErrStaleReceipt) hold across the HTTP boundary.
func statusErr(method, url string, resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("queue: %s %s: %w", method, url, ErrNoSuchQueue)
	case http.StatusConflict:
		return fmt.Errorf("queue: %s %s: %w", method, url, ErrStaleReceipt)
	case http.StatusForbidden:
		return fmt.Errorf("queue: %s %s: %w", method, url, ErrNotPrivileged)
	}
	return fmt.Errorf("queue: %s %s: %s", method, url, resp.Status)
}

// CreateQueue creates (idempotently) a queue.
func (c *HTTPClient) CreateQueue(name string) error {
	_, err := c.call(http.MethodPut, c.qURL(name), nil, nil, http.StatusCreated, http.StatusOK)
	return err
}

// DeleteQueue removes a queue and its messages.
func (c *HTTPClient) DeleteQueue(name string) error {
	_, err := c.call(http.MethodDelete, c.qURL(name), nil, nil, http.StatusNoContent)
	return err
}

// ListQueues returns the queue names, or nil when the request fails
// (the interface carries no error return, matching Service).
func (c *HTTPClient) ListQueues() []string {
	var out struct {
		Queues []string `json:"queues"`
	}
	if _, err := c.call(http.MethodGet, c.BaseURL+"/q", nil, &out, http.StatusOK); err != nil {
		return nil
	}
	return out.Queues
}

// ApproximateCount reports visible and in-flight message counts.
func (c *HTTPClient) ApproximateCount(name string) (visible, inflight int, err error) {
	var out struct {
		Visible  int `json:"visible"`
		Inflight int `json:"inflight"`
	}
	if _, err := c.call(http.MethodGet, c.qURL(name)+"/count", nil, &out, http.StatusOK); err != nil {
		return 0, 0, err
	}
	return out.Visible, out.Inflight, nil
}

// Purge removes every message from a queue.
func (c *HTTPClient) Purge(name string) error {
	_, err := c.call(http.MethodPost, c.qURL(name)+"/purge", nil, nil, http.StatusNoContent)
	return err
}

// ChangeVisibility extends or shrinks an in-flight message's lease.
func (c *HTTPClient) ChangeVisibility(name, receipt string, d time.Duration) error {
	u := c.receiptURL(name, receipt) + "/visibility?d=" + url.QueryEscape(d.String())
	_, err := c.call(http.MethodPost, u, nil, nil, http.StatusNoContent)
	return err
}

// requests reads a billed-request counter endpoint, 0 on any failure
// (the interface carries no error return, matching Service).
func (c *HTTPClient) requests(url string) int64 {
	var out struct {
		Requests int64 `json:"requests"`
	}
	if _, err := c.call(http.MethodGet, url, nil, &out, http.StatusOK); err != nil {
		return 0
	}
	return out.Requests
}

// APIRequests returns the remote service's total billed API calls.
func (c *HTTPClient) APIRequests() int64 { return c.requests(c.BaseURL + "/requests") }

// APIRequestsFor returns the billed API calls addressed to one queue.
func (c *HTTPClient) APIRequestsFor(name string) int64 { return c.requests(c.qURL(name) + "/requests") }

// SendMessage enqueues a message and returns its id.
func (c *HTTPClient) SendMessage(name string, body []byte) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if _, err := c.call(http.MethodPost, c.qURL(name)+"/messages", body, &out, http.StatusCreated); err != nil {
		return "", err
	}
	return out.ID, nil
}

// idsOut is the answer of every batch enqueue.
type idsOut struct {
	IDs []string `json:"ids"`
}

// SendMessageBatch enqueues up to MaxBatch bodies as one billed request.
func (c *HTTPClient) SendMessageBatch(name string, bodies [][]byte) ([]string, error) {
	var out idsOut
	in := map[string][][]byte{"bodies": bodies}
	if _, err := c.call(http.MethodPost, c.qURL(name)+"/messages/batch", in, &out, http.StatusCreated); err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// receiveURL builds a receive request: q carries "max" for the batch
// form and is empty for the single-message one.
func (c *HTTPClient) receiveURL(name string, q url.Values, visibility, wait time.Duration) string {
	if visibility > 0 {
		q.Set("visibility", visibility.String())
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	u := c.qURL(name) + "/messages"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

// ReceiveMessage pops a message; ok is false when the queue has nothing
// visible.
func (c *HTTPClient) ReceiveMessage(name string, visibility time.Duration) (Message, bool, error) {
	return c.ReceiveMessageWait(name, visibility, 0)
}

// ReceiveMessageWait long-polls for up to wait before returning empty.
func (c *HTTPClient) ReceiveMessageWait(name string, visibility, wait time.Duration) (Message, bool, error) {
	var wm wireMessage
	status, err := c.callWait(wait, http.MethodGet, c.receiveURL(name, url.Values{}, visibility, wait), nil, &wm,
		http.StatusOK, http.StatusNoContent)
	if err != nil || status == http.StatusNoContent {
		return Message{}, false, err
	}
	return wm.message(), true, nil
}

// ReceiveMessageBatch receives up to max messages in one request,
// long-polling up to wait. An empty slice means nothing became visible
// in time.
func (c *HTTPClient) ReceiveMessageBatch(name string, visibility time.Duration, max int, wait time.Duration) ([]Message, error) {
	var out struct {
		Messages []wireMessage `json:"messages"`
	}
	q := url.Values{"max": {strconv.Itoa(max)}}
	status, err := c.callWait(wait, http.MethodGet, c.receiveURL(name, q, visibility, wait), nil, &out,
		http.StatusOK, http.StatusNoContent)
	if err != nil || status == http.StatusNoContent {
		return nil, err
	}
	msgs := make([]Message, len(out.Messages))
	for i, wm := range out.Messages {
		msgs[i] = wm.message()
	}
	return msgs, nil
}

// TransferIn enqueues one message with its prior delivery count
// through the remote privileged transfer endpoint (queue.Transferrer).
func (c *HTTPClient) TransferIn(name string, body []byte, receives int) (string, error) {
	ids, err := c.TransferInBatch(name, []TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	if len(ids) == 0 {
		// A malformed peer answered 201 without ids; don't panic on it.
		return "", fmt.Errorf("queue: transfer into %s: response carried no ids", name)
	}
	return ids[0], nil
}

// TransferInBatch enqueues up to MaxBatch transfer items as one billed
// request through the remote privileged transfer endpoint. The client's
// AdminToken must match the server's or the call fails with
// ErrNotPrivileged; with no token configured at all the call fails
// locally — it cannot possibly succeed, and the shard migrator probes
// this once per batch, so the guaranteed 403 round trip is skipped.
func (c *HTTPClient) TransferInBatch(name string, items []TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > MaxBatch {
		return nil, ErrBatchSize
	}
	if c.AdminToken == "" {
		return nil, fmt.Errorf("queue: transfer into %s: client has no admin token: %w", name, ErrNotPrivileged)
	}
	var out idsOut
	in := map[string][]TransferItem{"items": items}
	if _, err := c.call(http.MethodPost, c.qURL(name)+"/transfer", in, &out, http.StatusCreated); err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// DeleteMessageBatch acknowledges up to MaxBatch receipts as one billed
// request, returning one error per entry (nil = deleted).
func (c *HTTPClient) DeleteMessageBatch(name string, receipts []string) ([]error, error) {
	var out struct {
		Errors []string `json:"errors"`
	}
	in := map[string][]string{"receipts": receipts}
	if _, err := c.call(http.MethodPost, c.qURL(name)+"/messages/batchdelete", in, &out, http.StatusOK); err != nil {
		return nil, err
	}
	results := make([]error, len(out.Errors))
	for i, e := range out.Errors {
		switch e {
		case "":
		case staleReceiptCode:
			results[i] = ErrStaleReceipt
		default:
			results[i] = errors.New(e)
		}
	}
	return results, nil
}

// DeleteMessage acknowledges a message by receipt handle.
func (c *HTTPClient) DeleteMessage(name, receipt string) error {
	_, err := c.call(http.MethodDelete, c.receiptURL(name, receipt), nil, nil, http.StatusNoContent)
	return err
}
