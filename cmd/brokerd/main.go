// Command brokerd runs the elastic job broker as a daemon: an HTTP API
// for submitting CAP3/BLAST/GTM jobs over the simulated cloud substrate
// (blob store + scheduling queues) with an autoscaled, cost-accounted
// worker fleet per job. Job state is event-sourced: every lifecycle
// transition is journaled to the blob store, and a restarted daemon
// replays the journals and re-adopts unfinished work (-recover).
//
// Usage:
//
//	brokerd -addr :8080 -max-fleet 16 -workers 2 \
//	        -journal-bucket broker-journal -recover \
//	        -fleet-budget 16 -tenant-quotas alice=6,bob=2
//
// Endpoints (see internal/broker.HTTPHandler):
//
//	POST /jobs; GET /jobs, /jobs/{id}, /jobs/{id}/events,
//	/jobs/{id}/cost, /jobs/{id}/deadletters, /jobs/{id}/outputs,
//	/jobs/{id}/journal; POST /jobs/{id}/preempt; GET /fleet, /tenants
//
// The POST /jobs body is length-framed, not JSON (internal/codec: a
// bytes field is a uvarint length followed by that many raw bytes):
//
//	bytes    options: {"app","tenant","target_makespan","autoscale",
//	         "inject_crashes"} — the only JSON in the body
//	uvarint  file count, then per file: bytes name, bytes data
//	uvarint  shared-data count, then per item: bytes name, bytes data
//
// File bytes travel raw. broker.HTTPClient.Submit builds the body from a
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
// from its own listener (-catalog): GET /catalog and /catalog/{app}.
// Settled tasks feed it continuously, and with -replan the broker
// re-runs instance selection against the observed curves mid-job,
// switching a mispredicted job's fleet to the type that is actually
// cheapest under the hysteresis guards (-replan-min-samples,
// -replan-error, -replan-cooldown).
//
// Each job is assigned a trace ID at submission (reported in its
// status); every queue request its control loop and workers make carries
// it as X-Trace-Id. -pprof serves net/http/pprof under /debug/pprof/.
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

// parseQuotas decodes "alice=6,bob=2" into a quota map.
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
		quotas[name] = n
	}
	return quotas, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxFleet := flag.Int("max-fleet", 16, "autoscaler max instances per job")
	minFleet := flag.Int("min-fleet", 1, "autoscaler min instances per job")
	workers := flag.Int("workers", 2, "workers per instance")
	visibility := flag.Duration("visibility", time.Minute, "task lease length")
	maxReceives := flag.Int("max-receives", 4, "per-task retry cap before dead-lettering")
	tick := flag.Duration("tick", 200*time.Millisecond, "autoscale, re-plan and bulk-drain cadence (completion is noticed between ticks)")
	targetDrain := flag.Duration("target-drain", 30*time.Second,
		"size fleets to drain the backlog within this window once throughput is observed (0 = backlog heuristic only)")
	catalogAddr := flag.String("catalog", ":8090",
		"calibration-catalog listen address (\"\" disables the listener; ingestion still runs)")
	replanOn := flag.Bool("replan", true, "re-plan jobs mid-run against observed service times")
	replanMinSamples := flag.Int("replan-min-samples", 16, "observations required before re-planning")
	replanError := flag.Float64("replan-error", 0.5,
		"relative error vs the plan that triggers a re-plan (0.5 = observed 1.5x plan)")
	replanCooldown := flag.Duration("replan-cooldown", 2*time.Second, "minimum spacing between re-plans")
	journalBucket := flag.String("journal-bucket", "broker-journal",
		"blob bucket for per-job event journals (\"-\" disables journaling)")
	doRecover := flag.Bool("recover", false,
		"replay journals at startup and re-adopt unfinished jobs")
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
			MinInstances: *minFleet,
			MaxInstances: *maxFleet,
			// The observed-throughput sizing basis only engages when a
			// drain target exists; without this default every fleet is
			// sized by the backlog heuristic forever.
			TargetDrain: *targetDrain,
		},
		WorkersPerInstance: *workers,
		VisibilityTimeout:  *visibility,
		MaxReceives:        *maxReceives,
		TickInterval:       *tick,
		JournalBucket:      *journalBucket,
		TenantQuotas:       quotas,
		FleetBudget:        *fleetBudget,
		Calibration:        cal,
		Replan: broker.ReplanPolicy{
			Enabled:     *replanOn,
			MinSamples:  *replanMinSamples,
			MinRelError: *replanError,
			Cooldown:    *replanCooldown,
		},
	})
	defer b.Close()

	if *catalogAddr != "" {
		go func() {
			log.Printf("brokerd: calibration catalog on %s (GET /catalog, /catalog/{app})", *catalogAddr)
			if err := http.ListenAndServe(*catalogAddr, &catalog.Handler{Service: cal}); err != nil {
				log.Printf("brokerd: catalog listener: %v", err)
			}
		}()
	}

	if *doRecover {
		// brokerd's env is process-local, so a fresh daemon finds an
		// empty journal bucket; the flag matters when the environment is
		// shared (embedded brokers, future networked blob/queue
		// services), and recovery on an empty bucket is a no-op.
		n, err := b.Recover()
		if err != nil {
			log.Printf("brokerd: recovery: %v", err)
		}
		log.Printf("brokerd: recovered %d running job(s) from journal bucket %q", n, *journalBucket)
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("brokerd: pprof enabled on /debug/pprof/")
	}
	mux.Handle("/", &broker.HTTPHandler{Broker: b})
	log.Printf("brokerd: listening on %s (max fleet %d, %d workers/instance, journal %q)",
		*addr, *maxFleet, *workers, *journalBucket)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		log.Fatal(err)
	}
}
