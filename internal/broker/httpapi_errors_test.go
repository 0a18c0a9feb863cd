package broker

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// HTTP error paths: unknown job IDs on every subresource, malformed
// JSON, submit-after-Close, and wrong verbs — the handler-level coverage
// the API previously lacked.
// ---------------------------------------------------------------------------

func TestHTTPUnknownJobAllSubresources(t *testing.T) {
	client, _ := testServer(t)
	if _, err := client.Status("job-9999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Status: %v", err)
	}
	if _, err := client.Events("job-9999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Events: %v", err)
	}
	if _, err := client.Cost("job-9999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Cost: %v", err)
	}
	if _, err := client.DeadLetters("job-9999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("DeadLetters: %v", err)
	}
	if _, err := client.Outputs("job-9999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Outputs: %v", err)
	}
	if _, err := client.Journal("job-9999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Journal: %v", err)
	}
	if err := client.Preempt("job-9999"); err == nil {
		t.Error("Preempt of unknown job succeeded")
	}
}

func TestHTTPMalformedJSONSubmit(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond})
	t.Cleanup(b.Close)
	h := &HTTPHandler{Broker: b}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs",
		strings.NewReader(`{"app": "cap3", "files": NOT-JSON`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed submit = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "bad request") {
		t.Errorf("diagnostic missing: %q", rec.Body.String())
	}
	// A bad target_makespan is caught before submission too.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs",
		strings.NewReader(`{"app":"cap3","files":{"a":"eA=="},"target_makespan":"soon"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad target_makespan = %d, want 400", rec.Code)
	}
}

func TestHTTPSubmitAfterClose(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond})
	srv := httptest.NewServer(&HTTPHandler{Broker: b})
	t.Cleanup(srv.Close)
	client := &HTTPClient{BaseURL: srv.URL}
	b.Close()
	_, err := client.Submit(JobRequest{App: "cap3", Files: map[string][]byte{"a": []byte("x")}})
	if err == nil {
		t.Fatal("submit after Close succeeded")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Errorf("err = %v, want 503 Service Unavailable", err)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond})
	t.Cleanup(b.Close)
	h := &HTTPHandler{Broker: b}
	for _, c := range []struct {
		method, path string
	}{
		{http.MethodDelete, "/jobs"},
		{http.MethodPost, "/fleet"},
		{http.MethodPost, "/tenants"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.path, rec.Code)
		}
	}
	// Unknown subresource of a real path shape is a 404.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/job-0001/nonsense", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown subresource = %d, want 404", rec.Code)
	}
}

// The journal endpoint serves the event-sourced history over the API,
// and /tenants attributes the fleet.
func TestHTTPJournalAndTenantsEndpoints(t *testing.T) {
	client, _ := testServer(t)
	st, err := client.Submit(JobRequest{
		App: "cap3", Tenant: "alice", Files: cap3Files(t, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" {
		t.Errorf("submitted tenant = %q, want alice", st.Tenant)
	}
	final, err := client.WaitForCompletion(st.ID, 30*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := client.Journal(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Type != EvSubmitted {
		t.Fatalf("journal = %+v, want submitted first", evs)
	}
	// Completion is journaled before the fleet retires (durable before
	// observable), so the final events are the retirement scale-downs;
	// the fold must still land on completed.
	rec, err := foldJournal(st.ID, nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCompleted || rec.fleetSize() != 0 {
		t.Errorf("journal folds to state=%s fleet=%d, want completed/0", rec.State, rec.fleetSize())
	}
	tenants, err := client.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0].Tenant != "alice" {
		t.Fatalf("tenants = %+v", tenants)
	}
	if tenants[0].Done != final.Done || tenants[0].HourUnits < 1 {
		t.Errorf("alice attribution = %+v, want done=%d hour units ≥ 1", tenants[0], final.Done)
	}
}
