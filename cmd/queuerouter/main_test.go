package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"repro/internal/blob"
	"repro/internal/journal"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/telemetry"
)

// adminRig wires an adminHandler over a two-shard local router.
func adminRig(t *testing.T) (*shard.Router, *adminHandler) {
	t.Helper()
	r := shard.NewRouter(shard.Config{})
	t.Cleanup(func() { r.Close() })
	for _, id := range []string{"a", "b"} {
		if err := r.AddShard(id, queue.NewService(queue.Config{})); err != nil {
			t.Fatal(err)
		}
	}
	return r, &adminHandler{router: r, metrics: telemetry.NewRegistry()}
}

// do runs one admin request and decodes the envelope.
func do(t *testing.T, h http.Handler, method, target string) (int, adminResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type = %q, want application/json", method, target, ct)
	}
	var resp adminResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s %s: bad envelope %q: %v", method, target, rec.Body.Bytes(), err)
	}
	if resp.V != adminV {
		t.Fatalf("%s %s: envelope v = %d, want %d", method, target, resp.V, adminV)
	}
	if resp.OK == (resp.Error != nil) {
		t.Fatalf("%s %s: envelope must carry exactly one of ok/error: %+v", method, target, resp)
	}
	return rec.Code, resp
}

// Every endpoint answers the same versioned envelope, success and
// failure alike, with stable machine-readable error codes.
func TestAdminEnvelope(t *testing.T) {
	r, h := adminRig(t)
	if err := r.CreateQueue("q1"); err != nil {
		t.Fatal(err)
	}
	// A node advertising a wire address: dialing is lazy, so nothing
	// need listen there for the router to judge the shard id.
	node := httptest.NewServer(wire.Advertise("127.0.0.1:9"))
	defer node.Close()

	status, resp := do(t, h, http.MethodGet, "/admin/shards")
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("GET /admin/shards: %d %+v", status, resp)
	}
	var view adminShardsView
	raw, _ := json.Marshal(resp.Data)
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Shards) != 2 || view.Failovers != 0 || len(view.Standbys) != 0 {
		t.Errorf("shards view = %+v, want 2 shards, no standbys, no failovers", view)
	}

	for _, tc := range []struct {
		method, target string
		status         int
		code           string
	}{
		{http.MethodGet, "/admin/rebalance", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/admin/regroup?group=g", http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/admin/regroup?queue=ghost&group=g", http.StatusNotFound, "no_such_queue"},
		{http.MethodPost, "/admin/regroup?queue=q1&group=a/b", http.StatusBadRequest, "bad_group"},
		{http.MethodPost, "/admin/split?group=g&k=0", http.StatusBadRequest, "bad_split"},
		{http.MethodPost, "/admin/split", http.StatusBadRequest, "bad_request"},
		{http.MethodPut, "/admin/shards/a?url=" + node.URL, http.StatusConflict, "shard_exists"},
		{http.MethodPut, "/admin/shards/x", http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/admin/failover", http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/admin/failover?shard=ghost", http.StatusNotFound, "no_such_shard"},
		{http.MethodPost, "/admin/failover?shard=a", http.StatusConflict, "no_standby"},
		{http.MethodGet, "/admin/nonsense", http.StatusNotFound, "not_found"},
	} {
		status, resp := do(t, h, tc.method, tc.target)
		if status != tc.status || resp.OK || resp.Error.Code != tc.code {
			t.Errorf("%s %s: got %d code %q, want %d %q",
				tc.method, tc.target, status, resp.Error.Code, tc.status, tc.code)
		}
	}

	status, resp = do(t, h, http.MethodPost, "/admin/regroup?queue=q1&group=g")
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("regroup: %d %+v", status, resp)
	}
	status, resp = do(t, h, http.MethodPost, "/admin/rebalance")
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("rebalance: %d %+v", status, resp)
	}
}

// POST /admin/failover promotes a registered standby and the shards
// view reflects the replication topology before and after.
func TestAdminFailover(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	r := shard.NewRouter(shard.Config{})
	defer r.Close()
	h := &adminHandler{router: r, metrics: telemetry.NewRegistry()}
	durCfg := queue.Config{
		Durability: &queue.Durability{Store: store, Bucket: "j", Key: "shard-d"},
	}
	primary := queue.NewService(durCfg)
	if err := primary.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("d", primary); err != nil {
		t.Fatal(err)
	}
	follower, err := queue.NewFollower(durCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetStandby("d", follower.PromoteAPI); err != nil {
		t.Fatal(err)
	}

	_, resp := do(t, h, http.MethodGet, "/admin/shards")
	var view adminShardsView
	raw, _ := json.Marshal(resp.Data)
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Standbys) != 1 || view.Standbys[0] != "d" {
		t.Fatalf("standbys = %v, want [d]", view.Standbys)
	}

	if err := r.CreateQueue("jobs"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SendMessage("jobs", []byte("x")); err != nil {
		t.Fatal(err)
	}
	primary.Halt()
	status, resp := do(t, h, http.MethodPost, "/admin/failover?shard=d")
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("failover: %d %+v", status, resp)
	}
	m, ok, err := r.ReceiveMessage("jobs", time.Minute)
	if err != nil || !ok || string(m.Body) != "x" {
		t.Fatalf("post-failover receive: %v ok=%v body=%q", err, ok, m.Body)
	}
	// The standby is consumed; a second failover is an explicit error.
	status, resp = do(t, h, http.MethodPost, "/admin/failover?shard=d")
	if status != http.StatusConflict || resp.Error.Code != "no_standby" {
		t.Fatalf("second failover: %d %+v", status, resp)
	}
}

// -dump-journal reads a durable shard's journal objects from files and
// prints them legibly: here a compacted journal (snapshot + tail)
// exported from a live service, then the same with its tail torn.
func TestDumpJournalFlag(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	svc := queue.NewService(queue.Config{Durability: &queue.Durability{
		Store: store, Bucket: "queue-journal", Key: "shard-local0", SnapshotEvery: 4,
	}})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateQueue("job-1/tasks"); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"a", "b\n", "!c", "d", "e"} {
		if _, err := svc.SendMessage("job-1/tasks", []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	export := func() fstest.MapFS {
		keys, err := store.List("queue-journal", "")
		if err != nil {
			t.Fatal(err)
		}
		fsys := fstest.MapFS{}
		for _, k := range keys {
			data, err := store.GetConsistent("queue-journal", k)
			if err != nil {
				t.Fatal(err)
			}
			fsys["queue-journal/"+k] = &fstest.MapFile{Data: data}
		}
		return fsys
	}

	fsys := export()
	var out bytes.Buffer
	if err := dumpJournal(&out, fsys, "queue-journal/shard-local0"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{`"journal":"queue-journal/shard-local0"`, `"snapshot"`, `"op":"send"`, `"job-1/tasks-5"`} {
		if !strings.Contains(got, want) {
			t.Errorf("dump lacks %s:\n%s", want, got)
		}
	}

	log := fsys["queue-journal/shard-local0"]
	log.Data = log.Data[:len(log.Data)-1]
	out.Reset()
	err := dumpJournal(&out, fsys, "queue-journal/shard-local0")
	if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(out.String(), "truncated frame at offset") {
		t.Errorf("torn journal: err %v, dump:\n%s", err, out.String())
	}
	if err := dumpJournal(&out, fsys, "shard-local0"); err == nil {
		t.Error("a ref without a bucket was accepted")
	}
}

// A shard URL whose node accepts and never answers must not stall
// start-up or PUT /admin/shards/{id}: discovery gives up within the
// dial timeout and the shard is refused, with the URL and the reason.
func TestDialShardRefusesWhenDiscoveryHangs(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1) // the one probe connection
	go func() {
		if c, err := ln.Accept(); err == nil {
			held <- c // kept open, never read, never answered
		}
	}()
	url := "http://" + ln.Addr().String()
	start := time.Now()
	c, err := dialShard(url, "tok", nil)
	if elapsed := time.Since(start); elapsed > 6*time.Second {
		t.Errorf("dialShard took %v against a silent node, want the 3s dial timeout", elapsed)
	}
	if c != nil || err == nil || !strings.Contains(err.Error(), url) || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("dialShard = %v, %v; want a refusal naming %s as unreachable", c, err, url)
	}
	select {
	case c := <-held:
		c.Close()
	default:
		t.Error("discovery never connected")
	}
}

// PUT /admin/shards/{id} with the URL of a server that serves no GET
// /wire answers the failure envelope naming the URL, and the topology
// is unchanged.
func TestAddShardRefusesANodeWithoutWire(t *testing.T) {
	r, h := adminRig(t)
	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	status, resp := do(t, h, http.MethodPut, "/admin/shards/x?url="+plain.URL)
	if status != http.StatusBadGateway || resp.OK || resp.Error.Code != "internal" || !strings.Contains(resp.Error.Message, plain.URL) {
		t.Errorf("PUT of a node without wire: %d %+v, want 502 internal naming %s", status, resp.Error, plain.URL)
	}
	if got := r.Shards(); len(got) != 2 {
		t.Errorf("shards after the refusal: %v, want the rig's two", got)
	}
}
