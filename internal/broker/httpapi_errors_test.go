package broker

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
)

// ---------------------------------------------------------------------------
// HTTP error paths: unknown job IDs on every subresource, malformed
// submissions, submit-after-Close, and wrong verbs — the handler-level
// coverage the API previously lacked.
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

// The POST /jobs body is outside input. One well-formed submission is
// accepted; every way of damaging it is a 400 that says "bad request",
// never a panic, a hang or a job.
func TestHTTPMalformedSubmit(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond})
	t.Cleanup(b.Close)
	h := &HTTPHandler{Broker: b}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		return rec
	}
	// body frames a submission by hand, so that a case can lie about any
	// field.
	type set = [][2]string
	body := func(opts string, files, shared set) []byte {
		var e codec.Enc
		e.Str(opts)
		for _, s := range []set{files, shared} {
			e.U64(uint64(len(s)))
			for _, kv := range s {
				e.Str(kv[0])
				e.Str(kv[1])
			}
		}
		return e.B
	}
	const opts = `{"app":"cap3","tenant":"t","target_makespan":"1h"}`
	files := set{{"a.fsa", ">r\nACGT\n"}, {"b.fsa", ">r\nTTGA\n"}}
	good := body(opts, files, set{{"db", "x"}})
	if rec := post(good); rec.Code != http.StatusCreated {
		t.Fatalf("well-formed submit = %d %s, want 201", rec.Code, rec.Body)
	}

	bomb := func(prefix []byte) []byte { // a length of 2^62 with nothing behind it
		return append(prefix, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f)
	}
	cases := map[string][]byte{
		"empty body":                nil,
		"trailing garbage":          append(append([]byte(nil), good...), 'x'),
		"options length bomb":       bomb(nil),
		"file count bomb":           bomb(body(opts, nil, nil)[:len(opts)+1]),
		"file data length bomb":     bomb(append(body(opts, nil, nil)[:len(opts)+1], 1, 1, 'a')),
		"bad options JSON":          body(`{"app": "cap3", NOT-JSON`, files, nil),
		"options not an object":     body(`[]`, files, nil),
		"bad target_makespan":       body(`{"app":"cap3","target_makespan":"soon"}`, files, nil),
		"repeated file name":        body(opts, set{{"a", "1"}, {"b", "2"}, {"a", "3"}}, nil),
		"repeated shared name":      body(opts, files, set{{"db", "1"}, {"db", "2"}}),
		"no files":                  body(opts, nil, set{{"db", "x"}}),
		"the JSON body of old":      []byte(`{"app":"cap3","files":{"a":"eA=="}}`),
		"the JSON body of old, big": []byte(`{"app":"cap3","files":{"a":"` + strings.Repeat("eA==", 64) + `"}}`),
	}
	// Cut anywhere — every field boundary included — it is not a submission.
	for cut := 1; cut < len(good); cut++ {
		cases[fmt.Sprintf("truncated to %d of %d bytes", cut, len(good))] = good[:cut]
	}
	for name, damaged := range cases {
		rec := post(damaged)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, rec.Code, rec.Body)
		} else if name != "no files" && !strings.Contains(rec.Body.String(), "bad request") {
			t.Errorf("%s: diagnostic missing: %q", name, rec.Body)
		}
	}
	if n := len(b.Jobs()); n != 1 {
		t.Errorf("%d jobs registered, want the well-formed one only", n)
	}
}

// decodeJobRequest on arbitrary bytes: it returns an error or a request,
// it never panics, what it returns cannot be bigger than what it was
// given (no set holds more names than the input has bytes for: nothing
// is sized from a declared count), and a request that decoded survives
// the encoder and back.
func FuzzDecodeJobRequest(f *testing.F) {
	for _, req := range []JobRequest{
		{},
		{App: "cap3", Files: map[string][]byte{"a": []byte(">r\nACGT\n")}},
		{App: "blast", Tenant: "t", TargetMakespan: time.Hour, InjectCrashes: 2,
			Autoscale: &AutoscalePolicy{MinInstances: 1, MaxInstances: 4, ScaleUpCooldown: time.Second},
			Files:     map[string][]byte{"q1": {0, 1, 2}, "q2": nil},
			Shared:    map[string][]byte{"db": []byte("x")}},
	} {
		body, err := encodeJobRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte(`{"app":"cap3","files":{"a":"eA=="}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeJobRequest(data)
		if err != nil {
			return // malformed input must only error, which it did
		}
		if names := len(req.Files) + len(req.Shared); 2*names > len(data) {
			t.Fatalf("%d names decoded from %d bytes", names, len(data))
		}
		body, err := encodeJobRequest(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request: %v", err)
		}
		again, err := decodeJobRequest(body)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded request: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("decode(encode(r)) != r:\n %+v\n %+v", req, again)
		}
	})
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

// The encoder sizes its buffer once: what it returns never outgrew the
// bound it allocated (a regrown slice would have spare capacity far
// beyond the length prefixes' slack).
func TestEncodeJobRequestSizesItsBufferOnce(t *testing.T) {
	files := numberedFiles(300)
	body, err := encodeJobRequest(JobRequest{App: "cap3", Files: files, Shared: map[string][]byte{"db": make([]byte, 1<<16)}})
	if err != nil {
		t.Fatal(err)
	}
	if slack, bound := cap(body)-len(body), 10*(2*(len(files)+1)+3); slack > bound {
		t.Errorf("%d-byte body in a %d-byte buffer: it was regrown", len(body), cap(body))
	}
}
