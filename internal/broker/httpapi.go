package broker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpx"
)

// HTTPHandler exposes a Broker through a REST interface, the broker
// counterpart of queue's HTTP face:
//
//	POST /jobs                     submit a job (JSON JobRequest)
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

// wireJobRequest is JobRequest with a string duration for transport.
type wireJobRequest struct {
	App            string            `json:"app"`
	Tenant         string            `json:"tenant,omitempty"`
	Files          map[string][]byte `json:"files"`
	Shared         map[string][]byte `json:"shared,omitempty"`
	TargetMakespan string            `json:"target_makespan,omitempty"`
	Autoscale      *AutoscalePolicy  `json:"autoscale,omitempty"`
	InjectCrashes  int               `json:"inject_crashes,omitempty"`
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
		var wreq wireJobRequest
		if err := json.NewDecoder(r.Body).Decode(&wreq); err != nil {
			http.Error(w, "broker: bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		req := JobRequest{
			App:           wreq.App,
			Tenant:        wreq.Tenant,
			Files:         wreq.Files,
			Shared:        wreq.Shared,
			Autoscale:     wreq.Autoscale,
			InjectCrashes: wreq.InjectCrashes,
		}
		if wreq.TargetMakespan != "" {
			d, err := time.ParseDuration(wreq.TargetMakespan)
			if err != nil {
				http.Error(w, "broker: bad target_makespan: "+err.Error(), http.StatusBadRequest)
				return
			}
			req.TargetMakespan = d
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
	wreq := wireJobRequest{
		App:           req.App,
		Tenant:        req.Tenant,
		Files:         req.Files,
		Shared:        req.Shared,
		Autoscale:     req.Autoscale,
		InjectCrashes: req.InjectCrashes,
	}
	if req.TargetMakespan > 0 {
		wreq.TargetMakespan = req.TargetMakespan.String()
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/jobs", "application/json", bytes.NewReader(body))
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
