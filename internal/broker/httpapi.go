package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/httpx"
)

// HTTPHandler exposes a Broker through a REST interface, the broker
// counterpart of queue's HTTP face:
//
//	POST /jobs                     submit a job (length-framed body, see encodeJobRequest)
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
type HTTPHandler struct {
	Broker *Broker
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

// maxJobRequestBytes bounds a POST /jobs body: the handler holds the
// whole submission in memory while Broker.Submit stages it.
const maxJobRequestBytes = 256 << 20

// encodeJobRequest renders the POST /jobs body, internal/codec fields in
// this order:
//
//	bytes    the options, a JSON wireJobRequest (a few hundred bytes)
//	uvarint  file count, then per file: bytes name, bytes data
//	uvarint  shared-data count, then per item: bytes name, bytes data
//
// File bytes travel as they are — no base64, no escaping — and the
// buffer is sized once, to an upper bound known from the lengths, so
// encoding is one copy of the inputs.
func encodeJobRequest(req JobRequest) ([]byte, error) {
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
		return nil, err
	}
	sets := [2]map[string][]byte{req.Files, req.Shared}
	size := len(opts) + 3*binary.MaxVarintLen64 // every length prefix at its longest
	for _, set := range sets {
		for name, data := range set {
			size += len(name) + len(data) + 2*binary.MaxVarintLen64
		}
	}
	e := codec.Enc{B: make([]byte, 0, size)}
	e.Bytes(opts)
	for _, set := range sets {
		e.U64(uint64(len(set)))
		for name, data := range set {
			e.Str(name)
			e.Bytes(data)
		}
	}
	return e.B, nil
}

// decodeJobRequest parses a POST /jobs body. The body is outside input:
// every length is read by codec.Dec, which refuses one larger than the
// bytes that remain, and nothing is sized from a declared count. A
// truncated field, bytes after the last one and a name that appears
// twice in a set are all framing errors. File data in the result
// aliases body.
func decodeJobRequest(body []byte) (JobRequest, error) {
	d := codec.Dec{B: body}
	opts := d.Bytes()
	files := decodeFileSet(&d)
	shared := decodeFileSet(&d)
	if d.Err == nil && len(d.B) > 0 {
		d.Fail() // bytes after the last field
	}
	if d.Err != nil {
		return JobRequest{}, fmt.Errorf("framing: %w", d.Err)
	}
	var wreq wireJobRequest
	if err := json.Unmarshal(opts, &wreq); err != nil {
		return JobRequest{}, fmt.Errorf("options: %w", err)
	}
	req := JobRequest{
		App:           wreq.App,
		Tenant:        wreq.Tenant,
		Files:         files,
		Shared:        shared,
		Autoscale:     wreq.Autoscale,
		InjectCrashes: wreq.InjectCrashes,
	}
	if wreq.TargetMakespan != "" {
		d, err := time.ParseDuration(wreq.TargetMakespan)
		if err != nil {
			return JobRequest{}, fmt.Errorf("target_makespan: %w", err)
		}
		req.TargetMakespan = d
	}
	return req, nil
}

// decodeFileSet reads one counted name → data set (nil when empty).
func decodeFileSet(d *codec.Dec) map[string][]byte {
	var set map[string][]byte
	for n := d.Len(); n > 0 && d.Err == nil; n-- {
		name, data := d.Str(), d.Bytes()
		if _, dup := set[name]; dup {
			d.Fail()
		}
		if set == nil {
			set = make(map[string][]byte)
		}
		set[name] = data
	}
	return set
}

// readBody reads r to its end into one slice. Memory is only ever sized
// from bytes that have arrived, never from Content-Length: chunks double
// as they fill, and the result is one copy of them into a slice of the
// size they add up to (io.ReadAll and bytes.Buffer re-copy and re-clear
// everything read so far at every doubling, a third of a 10 MB
// submission's time).
func readBody(r io.Reader) ([]byte, error) {
	var chunks [][]byte
	for size := 64 << 10; ; size *= 2 {
		chunk := make([]byte, size)
		n, err := io.ReadFull(r, chunk)
		chunks = append(chunks, chunk[:n])
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return bytes.Join(chunks, nil), nil
		default:
			return nil, err
		}
	}
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/fleet":
		h.serveFleet(w, r)
	case r.URL.Path == "/tenants":
		h.serveTenants(w, r)
	case r.URL.Path == "/jobs":
		h.serveJobs(w, r)
	default:
		rest, ok := strings.CutPrefix(r.URL.Path, "/jobs/")
		if !ok || rest == "" {
			http.NotFound(w, r)
			return
		}
		parts := strings.SplitN(rest, "/", 2)
		sub := ""
		if len(parts) == 2 {
			sub = parts[1]
		}
		h.serveJob(w, r, parts[0], sub)
	}
}

func (h *HTTPHandler) serveFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, map[string]int{"fleet": h.Broker.FleetSize()})
}

func (h *HTTPHandler) serveTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, h.Broker.TenantReport())
}

func (h *HTTPHandler) serveJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		// The request's file data aliases body; Submit copies what it
		// keeps (blob.Put), so nothing outlives the request.
		body, err := readBody(http.MaxBytesReader(w, r.Body, maxJobRequestBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "broker: bad request: "+err.Error(), status)
			return
		}
		req, err := decodeJobRequest(body)
		if err != nil {
			http.Error(w, "broker: bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		j, err := h.Broker.Submit(req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, j.Status())
	case http.MethodGet:
		jobs := h.Broker.Jobs()
		out := make([]Status, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.Status())
		}
		writeJSON(w, out)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *HTTPHandler) serveJob(w http.ResponseWriter, r *http.Request, id, sub string) {
	j, ok := h.Broker.Job(id)
	if !ok {
		http.Error(w, ErrNoSuchJob.Error(), http.StatusNotFound)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, j.Status())
	case sub == "events" && r.Method == http.MethodGet:
		writeJSON(w, j.Events())
	case sub == "cost" && r.Method == http.MethodGet:
		writeJSON(w, j.CostReport())
	case sub == "deadletters" && r.Method == http.MethodGet:
		writeJSON(w, j.DeadLetters())
	case sub == "outputs" && r.Method == http.MethodGet:
		outs, err := j.CollectOutputs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, outs)
	case sub == "journal" && r.Method == http.MethodGet:
		events, err := j.Journal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, events)
	case sub == "preempt" && r.Method == http.MethodPost:
		if !j.Preempt() {
			http.Error(w, "broker: no running instance to preempt", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	case sub == "" || sub == "events" || sub == "cost" || sub == "deadletters" ||
		sub == "outputs" || sub == "journal" || sub == "preempt":
		// Known subresource, wrong verb.
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	default:
		http.NotFound(w, r)
	}
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
	body, err := encodeJobRequest(req)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/jobs", "application/octet-stream", bytes.NewReader(body))
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
