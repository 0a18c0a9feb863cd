package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/blob"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/telemetry"
)

// GET /admin/shards reports, per registered standby, the journal bytes
// it still has to fold — and stops reporting a standby once a failover
// consumed it.
func TestAdminShardsReportsStandbyLag(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	r := shard.NewRouter(shard.Config{})
	defer r.Close()
	durCfg := queue.Config{Durability: &queue.Durability{Store: store, Bucket: "j", Key: "shard-d"}}
	primary := queue.NewService(durCfg)
	if err := primary.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("d", primary); err != nil {
		t.Fatal(err)
	}
	follower, err := queue.NewFollower(durCfg) // never started: it folds nothing on its own
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetStandby("d", follower.PromoteAPI); err != nil {
		t.Fatal(err)
	}
	h := &adminHandler{router: r, metrics: telemetry.NewRegistry(), followers: map[string]*queue.Follower{"d": follower}}
	lagOf := func() (standbyLag, bool) {
		t.Helper()
		_, resp := do(t, h, http.MethodGet, "/admin/shards")
		var view adminShardsView
		raw, _ := json.Marshal(resp.Data)
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		lag, ok := view.StandbyLag["d"]
		return lag, ok
	}

	before, ok := lagOf()
	if !ok || before.Error != "" {
		t.Fatalf("standby_lag[d] = %+v (present %v), want a clean entry", before, ok)
	}
	if err := r.CreateQueue("jobs"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SendMessage("jobs", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if after, _ := lagOf(); after.Bytes <= before.Bytes {
		t.Errorf("lag %d bytes after two journaled records, was %d", after.Bytes, before.Bytes)
	}

	primary.Halt()
	if status, resp := do(t, h, http.MethodPost, "/admin/failover?shard=d"); status != http.StatusOK {
		t.Fatalf("failover: %d %+v", status, resp)
	}
	if lag, ok := lagOf(); ok {
		t.Errorf("standby_lag[d] = %+v after the standby was promoted", lag)
	}
}

// A shard id is the whole path remainder: the router judges it, not the
// path grammar, so an id with a slash reaches RemoveShard instead of
// answering "not_found".
func TestAdminShardIDIsThePathRemainder(t *testing.T) {
	r := shard.NewRouter(shard.Config{})
	defer r.Close()
	h := &adminHandler{router: r, metrics: telemetry.NewRegistry()}
	status, resp := do(t, h, http.MethodDelete, "/admin/shards/rack1/node2")
	if status != http.StatusNotFound || resp.Error == nil || resp.Error.Code != "no_such_shard" {
		t.Errorf("DELETE of an id with a slash: %d %+v, want 404 no_such_shard", status, resp.Error)
	}
}
