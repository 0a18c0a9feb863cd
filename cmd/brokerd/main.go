// Command brokerd runs the elastic job broker as a daemon: an HTTP API
// for submitting CAP3/BLAST/GTM jobs over the simulated cloud substrate
// (blob store + scheduling queues) with an autoscaled, cost-accounted
// worker fleet per job. Job state is event-sourced: every lifecycle
// transition is journaled to the blob store, and at start-up the daemon
// replays the journals it finds and re-adopts unfinished work (a no-op on
// the empty store a fresh process has).
//
// Usage:
//
//	brokerd -addr :8080 -max-fleet 6 -visibility 500ms -tick 10ms
//	brokerd -addr :8080 -workers 2 -fleet-budget 16 -tenant-quotas alice=6,bob=2
//
// Endpoints (see internal/broker.HTTPHandler):
//
//	POST /jobs; GET /jobs, /jobs/{id}, /jobs/{id}/events,
//	/jobs/{id}/cost, /jobs/{id}/deadletters, /jobs/{id}/outputs,
//	/jobs/{id}/journal; POST /jobs/{id}/preempt; GET /fleet, /tenants;
//	GET /catalog, /catalog/{app}; GET /metrics
//
// The POST /jobs body is length-framed, not JSON (internal/codec: a
// bytes field is a uvarint length followed by that many raw bytes):
//
//	bytes    options: {"app","tenant","target_makespan","autoscale",
//	         "inject_crashes"} — the only JSON in the body
//	uvarint  shared-data count, then per item: bytes name, bytes data
//	uvarint  file count, then per file: bytes name (names strictly
//	         increasing)
//	bytes    per file, in that order: its data
//
// File bytes travel raw, and the broker reads them as they arrive: the
// job starts once the names are in, and each batch of files is staged as
// soon as it has arrived. broker.HTTPClient.Submit builds the body from a
// broker.JobRequest; every response, and every GET, is JSON as before.
//
// Observability:
//
//	GET /metrics    whole-stack telemetry — queue op latency histograms,
//	                blob op histograms and byte gauges, per-task service
//	                time percentiles (overall and per instance type),
//	                autoscale decision counters, fleet and backlog gauges
//	                (Prometheus text; ?format=json)
//
// The calibration catalog — observed per-task service times keyed by
// (app, instance type), with side-by-side price-performance — is served
// on the same listener: GET /catalog and /catalog/{app}. Settled tasks
// feed it continuously, and the broker re-runs instance selection
// against the observed curves mid-job, switching a mispredicted job's
// fleet to the type that is actually cheapest under broker.ReplanPolicy's
// hysteresis guards (16 samples, observed 1.5× the plan, 2 s apart).
//
// Each job is assigned a trace ID at submission (reported in its
// status); every queue request its control loop and workers make is
// scoped to it (queue.WithTrace). -pprof serves net/http/pprof under
// /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// parseQuotas decodes "alice=6,bob=2" into a quota map. A repeated
// tenant is an error: keeping either budget would drop the other.
func parseQuotas(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	quotas := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad quota %q (want tenant=N)", pair)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad quota %q: instance budget must be a positive integer", pair)
		}
		if _, dup := quotas[name]; dup {
			return nil, fmt.Errorf("tenant %q given twice", name)
		}
		quotas[name] = n
	}
	return quotas, nil
}

// routes is brokerd's one HTTP face: the job API at /, the calibration
// catalog, the telemetry registry and, when pprofOn, net/http/pprof.
func routes(b *broker.Broker, cal *catalog.Service, reg *telemetry.Registry, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", &broker.HTTPHandler{Broker: b})
	mux.Handle("/catalog", &catalog.Handler{Service: cal})
	mux.Handle("/catalog/", &catalog.Handler{Service: cal})
	mux.Handle("/metrics", reg.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxFleet := flag.Int("max-fleet", 16, "autoscaler max instances per job")
	workers := flag.Int("workers", 2, "workers per instance")
	visibility := flag.Duration("visibility", time.Minute, "task lease length")
	maxReceives := flag.Int("max-receives", 4, "per-task retry cap before dead-lettering")
	tick := flag.Duration("tick", 200*time.Millisecond, "autoscale, re-plan and bulk-drain cadence (completion is noticed between ticks)")
	fleetBudget := flag.Int("fleet-budget", 0,
		"broker-wide running-instance budget shared by all tenants (0 = sum of quotas, or unlimited)")
	tenantQuotas := flag.String("tenant-quotas", "",
		"per-tenant instance quotas, e.g. alice=6,bob=2")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	quotas, err := parseQuotas(*tenantQuotas)
	if err != nil {
		log.Fatalf("brokerd: -tenant-quotas: %v", err)
	}

	reg := telemetry.NewRegistry()
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{Metrics: reg}),
		Queue: queue.NewService(queue.Config{Metrics: reg}),
	}
	cal, err := catalog.Open(catalog.Config{
		Store:  env.Blob,
		Prices: append(cloud.EC2Catalog(), cloud.AzureCatalog()...),
	})
	if err != nil {
		log.Fatalf("brokerd: opening calibration catalog: %v", err)
	}
	b := broker.New(broker.Config{
		Env:     env,
		Metrics: reg,
		Autoscale: broker.AutoscalePolicy{
			MaxInstances: *maxFleet,
			// The observed-throughput sizing basis only engages when a
			// drain target exists; without one every fleet is sized by
			// the backlog heuristic forever.
			TargetDrain: 30 * time.Second,
		},
		WorkersPerInstance: *workers,
		VisibilityTimeout:  *visibility,
		MaxReceives:        *maxReceives,
		TickInterval:       *tick,
		TenantQuotas:       quotas,
		FleetBudget:        *fleetBudget,
		Calibration:        cal,
		Replan:             broker.ReplanPolicy{Enabled: true},
	})
	defer b.Close()

	// A fresh process finds an empty journal bucket (the blob store is
	// its own memory), and recovery on an empty bucket is a no-op; an
	// environment shared with a dead broker is re-adopted from here.
	n, err := b.Recover()
	if err != nil {
		log.Printf("brokerd: recovery: %v", err)
	}
	if n > 0 {
		log.Printf("brokerd: recovered %d running job(s) from the journal", n)
	}

	if *pprofOn {
		log.Printf("brokerd: pprof enabled on /debug/pprof/")
	}
	log.Printf("brokerd: listening on %s (max fleet %d, %d workers/instance; GET /catalog for calibration)",
		*addr, *maxFleet, *workers)
	if err := http.ListenAndServe(*addr, routes(b, cal, reg, *pprofOn)); err != nil {
		log.Fatal(err)
	}
}
