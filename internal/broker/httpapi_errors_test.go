package broker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/classiccloud"
	"repro/internal/codec"
	"repro/internal/queue"
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
// never a panic, a hang or a job. The damage past the manifest is found
// after the job was admitted and its first batch staged, and the job
// must go with everything it made.
func TestHTTPMalformedSubmit(t *testing.T) {
	env := testEnv()
	b := New(Config{Env: env, TickInterval: 5 * time.Millisecond})
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
	body := func(opts string, shared, files set) []byte {
		var e codec.Enc
		e.Str(opts)
		e.U64(uint64(len(shared)))
		for _, kv := range shared {
			e.Str(kv[0])
			e.Str(kv[1])
		}
		e.U64(uint64(len(files)))
		for _, kv := range files {
			e.Str(kv[0])
		}
		for _, kv := range files {
			e.Str(kv[1])
		}
		return e.B
	}
	const opts = `{"app":"cap3","tenant":"t","target_makespan":"1h"}`
	var files set // twelve files: two batches
	for i := range 12 {
		files = append(files, [2]string{fmt.Sprintf("f%02d.fsa", i), ">r\nACGT\n"})
	}
	good := body(opts, set{{"db", "x"}}, files)
	if rec := post(good); rec.Code != http.StatusCreated {
		t.Fatalf("well-formed submit = %d %s, want 201", rec.Code, rec.Body)
	}
	header := len(good) - 12*len(">r\nACGT\n") - 12 // up to the first file's data

	bomb := func(prefix []byte) []byte { // a length of 2^62 with nothing behind it
		return append(prefix, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f)
	}
	noFiles := body(opts, nil, nil)
	cases := map[string][]byte{
		"empty body":                nil,
		"trailing garbage":          append(append([]byte(nil), good...), 'x'),
		"options length bomb":       bomb(nil),
		"shared count bomb":         bomb(noFiles[:len(opts)+1]),
		"file count bomb":           bomb(noFiles[:len(opts)+2]),
		"file data length bomb":     bomb(append(noFiles[:len(opts)+2:len(opts)+2], 1, 1, 'a')),
		"bad options JSON":          body(`{"app": "cap3", NOT-JSON`, nil, files),
		"options not an object":     body(`[]`, nil, files),
		"bad target_makespan":       body(`{"app":"cap3","target_makespan":"soon"}`, nil, files),
		"repeated file name":        body(opts, nil, set{{"a", "1"}, {"b", "2"}, {"b", "3"}}),
		"file names out of order":   body(opts, nil, set{{"a", "1"}, {"c", "2"}, {"b", "3"}}),
		"repeated shared name":      body(opts, set{{"db", "1"}, {"db", "2"}}, files),
		"no files":                  noFiles,
		"cut after the manifest":    good[:header],
		"cut inside the last file":  good[:len(good)-3],
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
	if b.nextID < 2 {
		t.Fatal("no damaged submission was admitted: the cuts past the manifest test nothing")
	}
	onlyJobLeft(t, b, env, "job-0001")
}

// onlyJobLeft fails t if env holds a queue, bucket or journal object of
// a job of b's other than keep.
func onlyJobLeft(t *testing.T, b *Broker, env classiccloud.Env, keep string) {
	t.Helper()
	for _, q := range env.Queue.ListQueues() {
		if !strings.HasPrefix(q, keep+"/") {
			t.Errorf("queue %s left behind", q)
		}
	}
	keys, err := env.Blob.List(b.cfg.JournalBucket, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !strings.Contains(k, keep) {
			t.Errorf("journal bucket object %s left behind", k)
		}
	}
	for n := 1; n <= b.nextID; n++ {
		cfg := b.newJob(fmt.Sprintf("job-%04d", n)).ccCfg
		if cfg.JobName == keep {
			continue
		}
		for _, bucket := range []string{cfg.InputBucket(), cfg.OutputBucket()} {
			if _, err := env.Blob.List(bucket, ""); !errors.Is(err, blob.ErrNoSuchBucket) {
				t.Errorf("bucket %s left behind (List error %v)", bucket, err)
			}
		}
	}
}

// A body that declares a file far larger than what it sends buys memory
// for the bytes that arrived, not for the length it declared.
func TestSubmitBodyAllocatesWhatArrives(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond, Registry: inertRegistry()})
	t.Cleanup(b.Close)
	var e codec.Enc
	e.Str(`{"app":"inert"}`)
	e.U64(0) // no shared data
	e.U64(1) // one file…
	e.Str("big")
	e.U64(200 << 20) // …of 200 MB, of which ten bytes follow
	e.B = append(e.B, "0123456789"...)
	h := &HTTPHandler{Broker: b}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(e.B)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("truncated 200 MB file = %d %s, want 400", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("a 200 MB declaration with 10 bytes behind it allocated %d bytes", grew)
	}
}

// A body over maxJobRequestBytes is a 413, found by reading it, not by
// holding it: here one file, declared and sent at 300 MB, after the job
// was admitted, which then goes.
func TestHTTPSubmitTooLarge(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond, Registry: inertRegistry()})
	t.Cleanup(b.Close)
	var e codec.Enc
	e.Str(`{"app":"inert"}`)
	e.U64(0) // no shared data
	e.U64(1) // one file
	e.Str("big")
	e.U64(300 << 20)
	body := io.MultiReader(bytes.NewReader(e.B), io.LimitReader(zeros{}, 300<<20))
	rec := httptest.NewRecorder()
	(&HTTPHandler{Broker: b}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("300 MB body = %d %s, want 413", rec.Code, rec.Body)
	}
	if n := len(b.Jobs()); n != 0 {
		t.Errorf("%d jobs registered after a body that was too large", n)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// A submission that fails on the broker's own queue is the broker's
// fault, not the client's: a 500, where a request the broker cannot run
// stays a 400.
func TestHTTPSubmitBrokerFaultIs500(t *testing.T) {
	env := testEnv()
	env.Queue = &faultyQueue{API: env.Queue, failSendAt: 1}
	b := New(Config{Env: env, TickInterval: 5 * time.Millisecond, Registry: inertRegistry()})
	t.Cleanup(b.Close)
	srv := httptest.NewServer(&HTTPHandler{Broker: b})
	t.Cleanup(srv.Close)
	client := &HTTPClient{BaseURL: srv.URL}
	_, err := client.Submit(JobRequest{App: "inert", Files: numberedFiles(3)})
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Errorf("queue outage during staging: %v, want a 500 naming the fault", err)
	}
	_, err = client.Submit(JobRequest{App: "nope", Files: numberedFiles(3)})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("unknown app: %v, want 400", err)
	}
	if n := len(b.Jobs()); n != 0 {
		t.Errorf("%d jobs registered after failed submissions", n)
	}
}

// ScaleUpStep and ScaleUpCooldown are no longer fields of the policy: a
// submission that still sends them decodes, and they are ignored.
func TestSubmittedAutoscaleIgnoresRetiredKeys(t *testing.T) {
	e := codec.Enc{}
	e.Bytes([]byte(`{"app":"cap3","autoscale":{"MaxInstances":4,"ScaleUpStep":9,"ScaleUpCooldown":1000000000}}`))
	e.U64(0) // no shared data
	e.U64(0) // no files
	req, _, err := newBodyDecoder(bytes.NewReader(e.B)).header()
	if err != nil {
		t.Fatal(err)
	}
	if req.Autoscale == nil || *req.Autoscale != (AutoscalePolicy{MaxInstances: 4}) {
		t.Errorf("autoscale = %+v, want only MaxInstances 4", req.Autoscale)
	}
}

// decodeBody decodes a whole POST /jobs body as the handler does, the
// header and then a batch at a time, keeping a copy of each file.
func decodeBody(body []byte) (JobRequest, error) {
	d := newBodyDecoder(bytes.NewReader(body))
	req, ids, err := d.header()
	if err != nil {
		return JobRequest{}, err
	}
	tasks := classiccloud.Config{}.TasksFromIDs(ids)
	for start := 0; start < len(tasks); start += queue.MaxBatch {
		batch := tasks[start:min(start+queue.MaxBatch, len(tasks))]
		files, err := d.batch(batch)
		if err != nil {
			return JobRequest{}, err
		}
		if req.Files == nil {
			req.Files = make(map[string][]byte)
		}
		for i, data := range files {
			req.Files[batch[i].ID] = bytes.Clone(data)
		}
	}
	return req, nil
}

// encodeBody is the POST /jobs body HTTPClient.Submit sends, in one
// slice.
func encodeBody(t testing.TB, req JobRequest) []byte {
	body, size, err := jobBody(req)
	if err != nil {
		t.Fatal(err)
	}
	flat := bytes.Join(body, nil)
	if int64(len(flat)) != size {
		t.Fatalf("body of %d bytes declared as %d", len(flat), size)
	}
	return flat
}

// The streaming decoder on arbitrary bytes: it returns an error or a
// request, it never panics, what it returns cannot be bigger than what
// it was given (no set holds more names than the input has bytes for:
// nothing is sized from a declared count), and a request that decoded
// survives the encoder and back.
func FuzzDecodeJobRequest(f *testing.F) {
	for _, req := range []JobRequest{
		{},
		{App: "cap3", Files: map[string][]byte{"a": []byte(">r\nACGT\n")}},
		{App: "blast", Tenant: "t", TargetMakespan: time.Hour, InjectCrashes: 2,
			Autoscale: &AutoscalePolicy{MinInstances: 1, MaxInstances: 4, ScaleDownCooldown: time.Second},
			Files:     map[string][]byte{"q1": {0, 1, 2}, "q2": nil},
			Shared:    map[string][]byte{"db": []byte("x")}},
	} {
		body := encodeBody(f, req)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte(`{"app":"cap3","files":{"a":"eA=="}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeBody(data)
		if err != nil {
			return // malformed input must only error, which it did
		}
		if names := len(req.Files) + len(req.Shared); 2*names > len(data) {
			t.Fatalf("%d names decoded from %d bytes", names, len(data))
		}
		again, err := decodeBody(encodeBody(t, req))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded request: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("decode(encode(r)) != r:\n %+v\n %+v", req, again)
		}
	})
}

// A closed broker refuses a submission as soon as its header has
// arrived; a client still sending megabytes of files over a real
// connection must be told 503, not see a broken pipe.
func TestHTTPSubmitAfterClose(t *testing.T) {
	b := New(Config{Env: testEnv(), TickInterval: 5 * time.Millisecond})
	srv := httptest.NewServer(&HTTPHandler{Broker: b})
	t.Cleanup(srv.Close)
	client := &HTTPClient{BaseURL: srv.URL}
	b.Close()
	files := make(map[string][]byte, 64)
	for i := range 64 {
		files[fmt.Sprintf("f%02d", i)] = bytes.Repeat([]byte{byte(i)}, 128<<10)
	}
	_, err := client.Submit(JobRequest{App: "cap3", Files: files})
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
	// A real job: a known subresource with the wrong verb is a 405, not
	// the unknown job's 404.
	j, err := b.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method, path string
	}{
		{http.MethodDelete, "/jobs"},
		{http.MethodPost, "/fleet"},
		{http.MethodPost, "/tenants"},
		{http.MethodDelete, "/jobs/" + j.ID},
		{http.MethodPost, "/jobs/" + j.ID + "/cost"},
		{http.MethodGet, "/jobs/" + j.ID + "/preempt"},
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
