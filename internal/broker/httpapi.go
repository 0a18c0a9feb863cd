package broker

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/httpx"
)

// HTTPHandler exposes a Broker through a REST interface:
//
//	POST /jobs                     submit a job (length-framed body, see jobBody)
//	GET  /jobs                     list job statuses
//	GET  /jobs/{id}                one job's status
//	GET  /jobs/{id}/events         scaling event log
//	GET  /jobs/{id}/cost           cost report (elastic vs fixed fleet)
//	GET  /jobs/{id}/deadletters    dead-lettered task IDs
//	GET  /jobs/{id}/outputs        completed task outputs (JSON map)
//	GET  /jobs/{id}/journal        full event journal (admin/debug)
//	POST /jobs/{id}/preempt        kill one instance (spot reclaim)
//	GET  /fleet                    broker-wide fleet size
//	GET  /tenants                  per-tenant fleet/billing attribution
//
// A POST /jobs body is decoded as it arrives, never held whole: the job
// is admitted once the manifest is in, each batch is staged as soon as
// its files are, and the 201 follows the last. A submission refused for
// its content is a 400 (a job admitted before the damage arrived is
// withdrawn with all it made), a body over maxJobRequestBytes a 413, one
// to a closed broker a 503, and one that failed on the broker's own
// queue, blob store or journal a 500.
type HTTPHandler struct {
	Broker *Broker

	once sync.Once
	mux  *http.ServeMux // built on first use (init)
}

// wireJobRequest is a JobRequest's options — everything but its file
// bytes — with a string duration for transport: the JSON document that
// opens a POST /jobs body.
type wireJobRequest struct {
	App            string           `json:"app"`
	Tenant         string           `json:"tenant,omitempty"`
	TargetMakespan string           `json:"target_makespan,omitempty"`
	Autoscale      *AutoscalePolicy `json:"autoscale,omitempty"`
	InjectCrashes  int              `json:"inject_crashes,omitempty"`
}

// maxJobRequestBytes bounds a POST /jobs body. The handler never holds
// the body whole: it holds the header (options, shared data, manifest)
// and the file data of one batch at a time (bodyDecoder).
const maxJobRequestBytes = 256 << 20

// jobBody renders the POST /jobs body, internal/codec fields in this
// order:
//
//	bytes    the options, a JSON wireJobRequest (a few hundred bytes)
//	uvarint  shared-data count, then per item: bytes name, bytes data
//	uvarint  file count, then per file: bytes name — the manifest, its
//	         names strictly increasing
//	bytes    per file, in manifest order: its data
//
// Shared data comes first because the broker builds the job's executor
// from it, and the manifest before any file because it is the job's task
// set: once both have arrived the broker admits the job, and its workers
// start on the first batch while later files are still on the way. The
// body is the encoded header and length prefixes interleaved with the
// caller's own data slices, so no file byte is copied to encode it; size
// is its length.
func jobBody(req JobRequest) (body net.Buffers, size int64, err error) {
	wreq := wireJobRequest{
		App:           req.App,
		Tenant:        req.Tenant,
		Autoscale:     req.Autoscale,
		InjectCrashes: req.InjectCrashes,
	}
	if req.TargetMakespan != 0 {
		wreq.TargetMakespan = req.TargetMakespan.String()
	}
	opts, err := json.Marshal(wreq)
	if err != nil {
		return nil, 0, err
	}
	names := taskIDs(req.Files)

	// e holds every byte of the body but the data fields; each data field
	// is cut in after the length prefix that ends at its mark.
	var e codec.Enc
	type cut struct {
		mark int
		data []byte
	}
	cuts := make([]cut, 0, len(req.Shared)+len(names))
	data := func(p []byte) {
		e.U64(uint64(len(p)))
		cuts = append(cuts, cut{len(e.B), p})
	}
	e.Bytes(opts)
	e.U64(uint64(len(req.Shared)))
	for name, p := range req.Shared {
		e.Str(name)
		data(p)
	}
	e.U64(uint64(len(names)))
	for _, name := range names {
		e.Str(name)
	}
	for _, name := range names {
		data(req.Files[name])
	}
	body = make(net.Buffers, 0, 2*len(cuts)+1)
	size = int64(len(e.B))
	from := 0
	for _, c := range cuts {
		body = append(body, e.B[from:c.mark], c.data)
		size += int64(len(c.data))
		from = c.mark
	}
	return append(body, e.B[from:]), size, nil
}

// bodyDecoder reads a POST /jobs body (jobBody) field by field as it
// arrives. The body is outside input, and nothing is sized from a
// declared length or count: a count only bounds a loop, and a length
// buys memory as the bytes behind it arrive (fill). A truncated field,
// bytes after the last one, a shared name that appears twice and a
// manifest whose names do not strictly increase are all framing errors.
// Like codec.Dec it latches its first error in err, and every later read
// returns zero values.
type bodyDecoder struct {
	r       *bufio.Reader
	arrived int64 // body bytes read off the connection so far
	err     error
	left    int // manifest files whose data is still to be read
	name    []byte
	bufs    [][]byte // file data by position in a batch, reused
}

// lead is how far a declared length may run ahead of the bytes that have
// arrived when fill sizes a buffer for it: enough that a file of up to a
// mebibyte is read into one array, not a chain of doublings.
const lead = 1 << 20

// decoders recycles bodyDecoders between submissions, and with them a
// batch's worth of file buffers: nothing keeps a batch's data once it is
// staged (blob.Put copies a batch's files into one object, the one copy
// made), so the next body is read into the same arrays. release drops a buffer above lead, so the pool holds at most
// a few mebibytes per decoder.
var decoders = sync.Pool{New: func() any {
	return &bodyDecoder{r: bufio.NewReaderSize(nil, 64<<10)}
}}

// arrivals counts the body bytes read off the connection.
type arrivals struct {
	r io.Reader
	n *int64
}

func (a arrivals) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	*a.n += int64(n)
	return n, err
}

func newBodyDecoder(r io.Reader) *bodyDecoder {
	d := decoders.Get().(*bodyDecoder)
	d.arrived, d.err, d.left = 0, nil, 0
	d.r.Reset(arrivals{r, &d.arrived})
	return d
}

func (d *bodyDecoder) release() {
	d.r.Reset(nil)
	for i, buf := range d.bufs {
		if cap(buf) > lead {
			d.bufs[i] = nil
		}
	}
	if cap(d.name) > lead {
		d.name = nil
	}
	decoders.Put(d)
}

// fail latches err, marked as the request's fault. A body that ends
// inside a field is a framing error like any other.
func (d *bodyDecoder) fail(err error) {
	if d.err != nil {
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, codec.ErrCorrupt) {
		err = fmt.Errorf("framing: %w", codec.ErrCorrupt)
	}
	d.err = badRequest{fmt.Errorf("broker: bad request: %w", err)}
}

func (d *bodyDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(err)
	}
	return v
}

// count reads a collection count.
func (d *bodyDecoder) count() int {
	n := d.u64()
	if n > maxJobRequestBytes { // each element takes at least a byte
		d.tooLong()
		return 0
	}
	return int(n)
}

// tooLong fails a count or length that no accepted body has room for.
// Reading on, without keeping anything, tells whether the body is indeed
// too large (413) or ends first, a framing error (400).
func (d *bodyDecoder) tooLong() {
	_, err := io.Copy(io.Discard, d.r)
	d.fail(cmp.Or(err, codec.ErrCorrupt))
}

// fill reads the next bytes field into buf's array when it is big enough.
// Otherwise it grows a new one as the field arrives, never to more than
// twice what buf held or lead past the bytes the body has delivered,
// so a declared length cannot buy memory the client has not sent. A new
// array gets a thirty-second to spare, for a slightly larger file in the
// same batch position next time.
func (d *bodyDecoder) fill(buf []byte) []byte {
	size := d.u64()
	if size > maxJobRequestBytes {
		d.tooLong()
	}
	if d.err != nil {
		return nil
	}
	n := int(size)
	if n <= cap(buf) {
		d.read(buf[:n])
		return buf[:n]
	}
	buf = buf[:0]
	for len(buf) < n && d.err == nil {
		if len(buf) == cap(buf) {
			grown := min(n+n/32, max(2*cap(buf), int(d.arrived)+lead))
			buf = append(make([]byte, 0, grown), buf...)
		}
		m := min(n, cap(buf))
		d.read(buf[len(buf):m])
		buf = buf[:m]
	}
	return buf
}

func (d *bodyDecoder) read(p []byte) {
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail(err)
	}
}

func (d *bodyDecoder) str() string {
	d.name = d.fill(d.name)
	return string(d.name)
}

// end requires the body to end here.
func (d *bodyDecoder) end() {
	if d.err != nil {
		return
	}
	switch _, err := d.r.ReadByte(); err {
	case io.EOF:
	case nil:
		d.fail(codec.ErrCorrupt) // bytes after the last field
	default:
		d.fail(err)
	}
}

// header reads the options, the shared data and the manifest: the job
// request without its files, and its task IDs. A body without files
// ends there.
func (d *bodyDecoder) header() (JobRequest, []string, error) {
	opts := d.fill(nil)
	var req JobRequest
	for n := d.count(); n > 0 && d.err == nil; n-- {
		name, data := d.str(), d.fill(nil)
		if _, dup := req.Shared[name]; dup {
			d.fail(codec.ErrCorrupt)
		}
		if req.Shared == nil {
			req.Shared = make(map[string][]byte)
		}
		req.Shared[name] = data
	}
	var ids []string
	for n := d.count(); n > 0 && d.err == nil; n-- {
		name := d.str()
		if len(ids) > 0 && name <= ids[len(ids)-1] {
			d.fail(codec.ErrCorrupt)
		}
		ids = append(ids, name)
	}
	if d.left = len(ids); d.left == 0 {
		d.end()
	}
	if d.err != nil {
		return JobRequest{}, nil, d.err
	}
	var wreq wireJobRequest
	if err := json.Unmarshal(opts, &wreq); err != nil {
		d.fail(fmt.Errorf("options: %w", err))
		return JobRequest{}, nil, d.err
	}
	req.App, req.Tenant = wreq.App, wreq.Tenant
	req.Autoscale, req.InjectCrashes = wreq.Autoscale, wreq.InjectCrashes
	if wreq.TargetMakespan != "" {
		t, err := time.ParseDuration(wreq.TargetMakespan)
		if err != nil {
			d.fail(fmt.Errorf("target_makespan: %w", err))
			return JobRequest{}, nil, d.err
		}
		req.TargetMakespan = t
	}
	return req, ids, nil
}

// batch reads the data of the batch's files, the next manifest names in
// order (ids), into arrays it reuses from batch to batch, and returns them
// in the batch's order: they are valid until the next call. It stops at a
// malformed file, leaving the arrays past it to the next body. After the
// manifest's last file it requires the body to end, so a body that is
// malformed anywhere fails before its last batch is staged.
func (d *bodyDecoder) batch(ids []string) ([][]byte, error) {
	for len(d.bufs) < len(ids) {
		d.bufs = append(d.bufs, nil)
	}
	for i := 0; i < len(ids) && d.err == nil; i++ {
		d.bufs[i] = d.fill(d.bufs[i])
	}
	if d.left -= len(ids); d.left == 0 {
		d.end()
	}
	return d.bufs[:len(ids)], d.err
}

// submitStatus is the HTTP status of a failed POST /jobs.
func submitStatus(err error) int {
	var tooLarge *http.MaxBytesError
	var bad badRequest
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.once.Do(h.init)
	h.mux.ServeHTTP(w, r)
}

// init routes the API by method pattern: a known path with the wrong verb
// is the mux's 405, an unknown path its 404, and an unknown job a 404
// with ErrNoSuchJob's text, which HTTPClient maps back to it.
func (h *HTTPHandler) init() {
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]int{"fleet": h.Broker.FleetSize()})
	})
	h.mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, h.Broker.TenantReport())
	})
	h.mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		jobs := h.Broker.Jobs()
		out := make([]Status, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.Status())
		}
		writeJSON(w, out)
	})
	h.mux.HandleFunc("POST /jobs", h.submit)
	job := func(pattern string, serve func(http.ResponseWriter, *Job)) {
		h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			j, ok := h.Broker.Job(r.PathValue("id"))
			if !ok {
				http.Error(w, ErrNoSuchJob.Error(), http.StatusNotFound)
				return
			}
			serve(w, j)
		})
	}
	job("GET /jobs/{id}", func(w http.ResponseWriter, j *Job) { writeJSON(w, j.Status()) })
	job("GET /jobs/{id}/events", func(w http.ResponseWriter, j *Job) { writeJSON(w, j.Events()) })
	job("GET /jobs/{id}/cost", func(w http.ResponseWriter, j *Job) { writeJSON(w, j.CostReport()) })
	job("GET /jobs/{id}/deadletters", func(w http.ResponseWriter, j *Job) { writeJSON(w, j.DeadLetters()) })
	job("GET /jobs/{id}/outputs", func(w http.ResponseWriter, j *Job) {
		outs, err := j.CollectOutputs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, outs)
	})
	job("GET /jobs/{id}/journal", func(w http.ResponseWriter, j *Job) {
		events, err := j.Journal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, events)
	})
	job("POST /jobs/{id}/preempt", func(w http.ResponseWriter, j *Job) {
		if !j.Preempt() {
			http.Error(w, "broker: no running instance to preempt", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
}

// submit serves POST /jobs. The job is admitted once the body's header
// has arrived, and each batch staged as soon as its files have.
func (h *HTTPHandler) submit(w http.ResponseWriter, r *http.Request) {
	d := newBodyDecoder(http.MaxBytesReader(w, r.Body, maxJobRequestBytes))
	defer d.release()
	req, ids, err := d.header()
	var j *Job
	if err == nil {
		j, err = h.Broker.submit(req, ids, d.batch)
	}
	if err != nil {
		http.Error(w, err.Error(), submitStatus(err))
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, j.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPClient speaks the HTTPHandler protocol.
type HTTPClient struct {
	BaseURL string
	Client  *http.Client
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return httpx.Client
}

// Submit posts a job and returns its initial status.
func (c *HTTPClient) Submit(req JobRequest) (Status, error) {
	body, size, err := jobBody(req)
	if err != nil {
		return Status{}, err
	}
	hreq, err := http.NewRequest(http.MethodPost, c.BaseURL+"/jobs", nil)
	if err != nil {
		return Status{}, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hreq.ContentLength = size
	// A fresh reader over the same slices each time, so the transport can
	// resend the body on a new connection.
	hreq.GetBody = func() (io.ReadCloser, error) {
		bufs := slices.Clone(body)
		return io.NopCloser(&bufs), nil
	}
	hreq.Body, _ = hreq.GetBody()
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return Status{}, fmt.Errorf("broker: submit: %s: %s", resp.Status, readErrorBody(resp))
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Status fetches one job's status.
func (c *HTTPClient) Status(id string) (Status, error) {
	var st Status
	err := c.getJSON("/jobs/"+id, &st)
	return st, err
}

// Events fetches the scaling event log.
func (c *HTTPClient) Events(id string) ([]ScalingEvent, error) {
	var evs []ScalingEvent
	err := c.getJSON("/jobs/"+id+"/events", &evs)
	return evs, err
}

// Cost fetches the cost report.
func (c *HTTPClient) Cost(id string) (CostReport, error) {
	var cr CostReport
	err := c.getJSON("/jobs/"+id+"/cost", &cr)
	return cr, err
}

// DeadLetters fetches the dead-lettered task IDs.
func (c *HTTPClient) DeadLetters(id string) ([]string, error) {
	var ids []string
	err := c.getJSON("/jobs/"+id+"/deadletters", &ids)
	return ids, err
}

// Outputs fetches completed task outputs.
func (c *HTTPClient) Outputs(id string) (map[string][]byte, error) {
	var outs map[string][]byte
	err := c.getJSON("/jobs/"+id+"/outputs", &outs)
	return outs, err
}

// Journal fetches the job's full event journal.
func (c *HTTPClient) Journal(id string) ([]Event, error) {
	var evs []Event
	err := c.getJSON("/jobs/"+id+"/journal", &evs)
	return evs, err
}

// Tenants fetches the per-tenant fleet/billing attribution report.
func (c *HTTPClient) Tenants() ([]TenantStatus, error) {
	var ts []TenantStatus
	err := c.getJSON("/tenants", &ts)
	return ts, err
}

// Preempt kills one running instance of the job.
func (c *HTTPClient) Preempt(id string) error {
	resp, err := c.httpClient().Post(c.BaseURL+"/jobs/"+id+"/preempt", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("broker: preempt %s: %s: %s", id, resp.Status, readErrorBody(resp))
	}
	return nil
}

// FleetSize fetches the broker-wide running instance count.
func (c *HTTPClient) FleetSize() (int, error) {
	var out map[string]int
	if err := c.getJSON("/fleet", &out); err != nil {
		return 0, err
	}
	return out["fleet"], nil
}

// WaitForCompletion polls status until the job completes or the
// timeout expires.
func (c *HTTPClient) WaitForCompletion(id string, timeout, poll time.Duration) (Status, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(id)
		if err != nil {
			return st, err
		}
		if st.State == StateCompleted {
			return st, nil
		}
		if st.State == StateAborted {
			return st, fmt.Errorf("broker: job %s aborted with %d/%d done", id, st.Done, st.Total)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("broker: job %s timeout with %d/%d done", id, st.Done, st.Total)
		}
		time.Sleep(poll)
	}
}

func (c *HTTPClient) getJSON(path string, v any) error {
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return ErrNoSuchJob
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("broker: GET %s: %s: %s", path, resp.Status, readErrorBody(resp))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// readErrorBody extracts the server's diagnostic from a non-2xx
// response so the caller's error says what went wrong, not just the
// status code.
func readErrorBody(resp *http.Response) string {
	b, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	if err != nil || len(b) == 0 {
		return "(no body)"
	}
	return strings.TrimSpace(string(b))
}
