package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// The job API, the calibration catalog and the telemetry registry answer
// on the one handler main serves on -addr.
func TestOneListenerServesJobsCatalogAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{Metrics: reg}),
		Queue: queue.NewService(queue.Config{Metrics: reg}),
	}
	cal, err := catalog.Open(catalog.Config{Store: env.Blob, Prices: cloud.EC2Catalog()})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Config{Env: env, Metrics: reg, Calibration: cal})
	defer b.Close()
	srv := httptest.NewServer(routes(b, cal, reg, false))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/jobs"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("GET /jobs = %d %q, want 200 and JSON", code, body)
	}
	if code, body := get("/catalog"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("GET /catalog = %d %q, want 200 and JSON", code, body)
	}
	if code, _ := get("/catalog/cap3"); code != http.StatusNotFound {
		t.Errorf("GET /catalog/cap3 before any observation = %d, want 404", code)
	}
	if err := cal.Record("cap3", cloud.EC2Catalog()[0].Key(), []time.Duration{time.Second}); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/catalog/cap3"); code != http.StatusOK || !strings.Contains(body, `"cap3"`) {
		t.Errorf("GET /catalog/cap3 once observed = %d %q, want 200 naming the app", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "blob_") {
		t.Errorf("GET /metrics = %d, want 200 with the blob store's instruments:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code == http.StatusOK {
		t.Errorf("GET /debug/pprof/ = 200 without -pprof")
	}
}
