// Command paperbench regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows or series the paper
// reports; absolute values come from the calibrated performance model
// (see EXPERIMENTS.md for paper-versus-measured).
//
// Usage:
//
//	paperbench                  # run everything
//	paperbench -exp fig5        # one experiment
//	paperbench -list            # list experiment ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/journal"
	"repro/internal/perfmodel"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

type experiment struct {
	id    string
	title string
	run   func()
}

// exitCode is set by fail(); a broken measurement must fail the
// process, or the CI bench gate would compare a stale BENCH file
// against itself and report green.
var exitCode int

// fail reports an experiment error and marks the run failed.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	exitCode = 1
}

func main() {
	expFlag := flag.String("exp", "", "experiment id to run (default: all)")
	listFlag := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	exps := experiments()
	if *listFlag {
		for _, e := range exps {
			fmt.Printf("%-14s %s\n", e.id, e.title)
		}
		return
	}
	if *expFlag != "" {
		for _, e := range exps {
			if e.id == *expFlag {
				banner(e)
				e.run()
				os.Exit(exitCode)
			}
		}
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (try -list)\n", *expFlag)
		os.Exit(1)
	}
	for _, e := range exps {
		banner(e)
		e.run()
		fmt.Println()
	}
	os.Exit(exitCode)
}

func banner(e experiment) {
	fmt.Printf("=== %s — %s ===\n", e.id, e.title)
}

func experiments() []experiment {
	return []experiment{
		{"table1", "Selected EC2 instance types", table1},
		{"table2", "Microsoft Windows Azure instance types", table2},
		{"table3", "Summary of cloud technology features", table3},
		{"fig3", "Cap3 cost with different EC2 instance types", fig3},
		{"fig4", "Cap3 compute time with different instance types", fig4},
		{"fig5", "Cap3 parallel efficiency", fig5},
		{"fig6", "Cap3 execution time for single file per core", fig6},
		{"table4", "Cap3 4096-file cost comparison (EC2 / Azure / owned cluster)", table4},
		{"fig7", "Cost to process 64 BLAST query files in EC2", fig7},
		{"fig8", "Time to process 64 BLAST query files in EC2", fig8},
		{"fig9", "Time to process 8 BLAST query files in Azure (workers x threads)", fig9},
		{"fig10", "BLAST parallel efficiency", fig10},
		{"fig11", "BLAST average time to process a single query file", fig11},
		{"fig12", "GTM cost with different instance types", fig12},
		{"fig13", "GTM Interpolation compute time with different instance types", fig13},
		{"fig14", "GTM Interpolation parallel efficiency", fig14},
		{"fig15", "GTM Interpolation performance per core", fig15},
		{"azurelinear", "Why Azure Cap3/GTM instance figures are omitted (Section 3)", azureLinearity},
		{"variability", "Sustained performance of clouds over a week (Section 3)", variability},
		{"inhomogeneous", "Dynamic vs static scheduling on skewed data (Section 4.2)", inhomogeneous},
		{"brokerplan", "Broker cost-aware instance selection (cheapest type meeting a deadline)", brokerPlan},
		{"broker", "Elastic broker live run: autoscaling and cost vs fixed fleet", brokerLive},
		{"queuebench", "Queue core throughput baseline (writes BENCH_queue.json)", queueBench},
		{"queueshard", "Sharded queue front scaling curve (writes BENCH_shard.json)", queueShard},
		{"queueskew", "Hot-group splitting on a Zipf-skewed workload (writes BENCH_skew.json)", queueSkew},
		{"queuewire", "Wire vs HTTP transport on the shard curve (writes BENCH_wire.json)", queueWire},
		{"brokerrecover", "Broker journal replay and append overhead (writes BENCH_broker.json)", brokerRecover},
		{"queuedurable", "Durable queue shards: journaling cost, recovery, failover (writes BENCH_durable.json)", queueDurable},
		{"replan", "Calibration catalog + mid-job re-planning loop (writes BENCH_replan.json)", replanBench},
	}
}

func table1() {
	fmt.Printf("%-22s %9s %6s %7s %10s\n", "Instance Type", "Memory", "ECUs", "Cores", "Cost/hour")
	for _, it := range cloud.EC2Catalog() {
		fmt.Printf("%-22s %7.1fGB %6d %7d %9.2f$\n",
			it.Name, it.MemoryGB, it.ComputeUnits, it.Cores, it.CostPerHour)
	}
}

func table2() {
	fmt.Printf("%-12s %6s %9s %12s %10s\n", "Instance", "Cores", "Memory", "Local Disk", "Cost/hour")
	for _, it := range cloud.AzureCatalog() {
		fmt.Printf("%-12s %6d %7.1fGB %10.0fGB %9.2f$\n",
			it.Name, it.Cores, it.MemoryGB, it.LocalDiskGB, it.CostPerHour)
	}
}

func table3() {
	rows := [][3]string{
		{"Programming patterns", "Independent job execution via queue", "MapReduce / DAG execution"},
		{"Fault tolerance", "Visibility-timeout re-execution", "Re-execution of failed and slow tasks"},
		{"Data storage", "S3/Azure Storage over HTTP", "HDFS / Windows shared local disks"},
		{"Environments", "EC2/Azure instances, local resources", "Linux cluster / Windows HPCS cluster"},
		{"Scheduling", "Dynamic global queue", "Data locality + global queue / static partitions"},
	}
	fmt.Printf("%-24s | %-38s | %s\n", "", "AWS/Azure Classic Cloud", "Hadoop / DryadLINQ")
	fmt.Println(strings.Repeat("-", 110))
	for _, r := range rows {
		fmt.Printf("%-24s | %-38s | %s\n", r[0], r[1], r[2])
	}
}

func instanceCost(rows []perfmodel.InstanceStudyRow) {
	fmt.Printf("%-16s %14s %16s\n", "Config", "Compute Cost", "Amortized Cost")
	for _, r := range rows {
		fmt.Printf("%-16s %13.2f$ %15.2f$\n", r.Label, r.ComputeCost, r.Amortized)
	}
}

func instanceTime(rows []perfmodel.InstanceStudyRow) {
	fmt.Printf("%-16s %14s\n", "Config", "Compute Time")
	for _, r := range rows {
		fmt.Printf("%-16s %14s\n", r.Label, r.ComputeTime)
	}
}

func fig3() { instanceCost(perfmodel.Cap3InstanceStudy()) }
func fig4() { instanceTime(perfmodel.Cap3InstanceStudy()) }

func efficiencySeries(points []perfmodel.ScalabilityPoint) {
	fmt.Printf("%-42s %6s %7s %10s %11s\n", "Implementation", "Cores", "Files", "Makespan", "Efficiency")
	for _, p := range points {
		fmt.Printf("%-42s %6d %7d %10s %11.3f\n", p.Framework, p.Cores, p.Files, p.Makespan, p.Efficiency)
	}
}

func perCoreSeries(points []perfmodel.ScalabilityPoint) {
	fmt.Printf("%-42s %6s %7s %18s\n", "Implementation", "Cores", "Files", "Per-file-per-core")
	for _, p := range points {
		fmt.Printf("%-42s %6d %7d %18s\n", p.Framework, p.Cores, p.Files, p.PerFilePerCore)
	}
}

func fig5() { efficiencySeries(perfmodel.Cap3Scalability()) }
func fig6() { perCoreSeries(perfmodel.Cap3Scalability()) }

func table4() {
	t := perfmodel.Table4CostComparison()
	fmt.Printf("%-28s %14s %14s\n", "", "Amazon AWS", "Azure")
	fmt.Printf("%-28s %13.2f$ %13.2f$\n", "Compute Cost", t.EC2Compute, t.AzureCompute)
	fmt.Printf("%-28s %13.2f$ %13.2f$\n", "Queue messages", t.EC2Queue, t.AzureQueue)
	fmt.Printf("%-28s %13.2f$ %13.2f$\n", "Storage (1GB, 1 month)", t.EC2Storage, t.AzureStorage)
	fmt.Printf("%-28s %13.2f$ %13.2f$\n", "Data transfer in/out", t.EC2TransferIn, t.AzureTransfer)
	fmt.Printf("%-28s %13.2f$ %13.2f$\n", "Total Cost", t.EC2Total, t.AzureTotal)
	fmt.Printf("(EC2 makespan %v, Azure makespan %v)\n", t.EC2Makespan, t.AzureMakespan)
	utils := make([]float64, 0, len(t.ClusterCost))
	for u := range t.ClusterCost {
		utils = append(utils, u)
	}
	sort.Float64s(utils)
	for _, u := range utils {
		fmt.Printf("Owned cluster at %2.0f%% utilization: %6.2f$ (makespan %v)\n",
			u*100, t.ClusterCost[u], t.ClusterMakespan)
	}
}

func fig7() { instanceCost(perfmodel.BlastInstanceStudy()) }
func fig8() { instanceTime(perfmodel.BlastInstanceStudy()) }

func fig9() {
	rows := perfmodel.BlastAzureStudy()
	fmt.Printf("%-24s %22s %12s\n", "Instance (count)", "Workers x Threads", "Time")
	for _, r := range rows {
		fmt.Printf("%-24s %22s %12s\n",
			fmt.Sprintf("%s (x%d)", r.InstanceType, r.Instances),
			fmt.Sprintf("%d x %d", r.Workers, r.Threads), r.Time)
	}
}

func fig10() { efficiencySeries(perfmodel.BlastScalability()) }
func fig11() { perCoreSeries(perfmodel.BlastScalability()) }
func fig12() { instanceCost(perfmodel.GTMInstanceStudy()) }
func fig13() { instanceTime(perfmodel.GTMInstanceStudy()) }
func fig14() { efficiencySeries(perfmodel.GTMScalability()) }
func fig15() { perCoreSeries(perfmodel.GTMScalability()) }

func azureLinearity() {
	apps := []struct {
		name string
		app  perfmodel.AppModel
	}{
		{"Cap3", perfmodel.Cap3Model(458)},
		{"GTM", perfmodel.GTMModel(100000)},
		{"BLAST", perfmodel.BlastModel(100)},
	}
	for _, a := range apps {
		fmt.Printf("%s on Azure (64 files, 8 cores):\n", a.name)
		fmt.Printf("  %-14s %10s %12s %16s\n", "Type", "Instances", "Time", "Cost x Time [$h]")
		for _, r := range perfmodel.AzureLinearityCheck(a.app) {
			fmt.Printf("  %-14s %10d %12s %16.3f\n", r.Type.Name, r.Instances, r.Time, r.CostTimeProduct)
		}
	}
	fmt.Println("flat Cost x Time for Cap3/GTM = performance scales linearly with price,")
	fmt.Println("which is why the paper presents no Azure instance study for them.")
}

func variability() {
	aws, azure := perfmodel.VariabilityStudy()
	fmt.Printf("AWS   performance CV over a week: %.2f%% (paper: 1.56%%)\n", aws)
	fmt.Printf("Azure performance CV over a week: %.2f%% (paper: 2.25%%)\n", azure)
	awsSamples := perfmodel.VariabilitySample(perfmodel.ClassicEC2, 7, 24, 21)
	fmt.Printf("AWS mean normalized performance: %.4f over %d samples\n",
		perfmodel.Mean(awsSamples), len(awsSamples))
}

func inhomogeneous() {
	rows := perfmodel.InhomogeneousStudy()
	fmt.Printf("%-14s %16s %16s %12s\n", "Heterogeneity", "Hadoop (dyn)", "Dryad (static)", "Dryad/Hadoop")
	for _, r := range rows {
		fmt.Printf("%-14.1f %16s %16s %12.2f\n",
			r.Heterogeneity, r.HadoopMakespan, r.DryadMakespan, r.Ratio)
	}
	_ = time.Second
}

// brokerPlan inverts the instance-cost figures: instead of pricing a
// fixed workload on every type, ask the planner which (type, fleet)
// is cheapest for a deadline — the decision the elastic broker makes
// at job submission.
func brokerPlan() {
	catalog := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	apps := []struct {
		name   string
		model  perfmodel.AppModel
		files  int
		target time.Duration
	}{
		{"cap3 (4096 files)", perfmodel.Cap3Model(458), 4096, time.Hour},
		{"blast (64 files)", perfmodel.BlastModel(100), 64, time.Hour},
		{"gtm (1024 shards)", perfmodel.GTMModel(100000), 1024, time.Hour},
	}
	fmt.Printf("%-20s %8s  %-28s %6s %10s %10s %8s\n",
		"Workload", "Target", "Chosen instance", "Fleet", "Makespan", "Cost", "Meets?")
	for _, a := range apps {
		best, ok := broker.PlanFleet(a.model, a.files, a.target, catalog, 64)
		if !ok {
			continue
		}
		fmt.Printf("%-20s %8s  %-28s %6d %10s %9.2f$ %8v\n",
			a.name, a.target, best.InstanceType().String()[:min(28, len(best.InstanceType().String()))],
			best.Instances(), best.Outcome.Makespan.Round(time.Second),
			best.Outcome.Bill.ComputeCost, best.MeetsTarget)
	}
}

// queueBenchReport is the BENCH_queue.json schema: the queue core's
// throughput baseline, recorded so later changes can be compared against
// this commit's numbers.
type queueBenchReport struct {
	// ContentionOpsPerSec is the aggregate send→receive→delete cycle
	// rate of 8 queues × 8 workers sharing one service.
	ContentionOpsPerSec float64 `json:"contention_ops_per_sec"`
	// DeadBacklogReceiveNs is the mean ReceiveMessage latency on a queue
	// whose history holds 100k deleted messages and 100 live ones —
	// flat, now that deletions compact.
	DeadBacklogReceiveNs float64 `json:"dead_backlog_receive_ns"`
	// Single/BatchRequestsPerTask compare the billed API requests per
	// task for per-message versus batched send/receive/delete.
	SingleRequestsPerTask float64 `json:"single_requests_per_task"`
	BatchRequestsPerTask  float64 `json:"batch_requests_per_task"`
	// LongPollWakeupNs is the send→delivery latency through a blocked
	// long-poll receiver: the best of several runs' median rounds. Mean
	// and single-run medians are at the mercy of scheduler mode shifts
	// on small CI machines, and this number gates CI — minima compare
	// the clean runs, the same reasoning as the broker bench.
	LongPollWakeupNs float64 `json:"long_poll_wakeup_ns"`
	// ReceiveP50Ns/ReceiveP99Ns are the service's own telemetry view of
	// the contention workload: percentiles of the queue_op_ns{op=receive}
	// histogram the instrumented service records about itself. They gate
	// CI like every other _ns field (3x tolerance — the histogram's
	// power-of-two buckets quantize, so small shifts are expected).
	ReceiveP50Ns float64 `json:"contention_receive_p50_ns"`
	ReceiveP99Ns float64 `json:"contention_receive_p99_ns"`
}

// queueBench measures the rewritten queue core — per-queue locking,
// indexed receipts, batch billing, long polling — and writes the
// numbers to BENCH_queue.json as the baseline for future changes.
func queueBench() {
	rep := queueBenchReport{}

	// Contention: 8 queues × 8 workers, the multi-tenant broker shape.
	// The service is instrumented for this run: the same telemetry a
	// deployed daemon serves on /metrics yields the latency percentiles
	// below, and the full registry is written out as an artifact.
	reg := telemetry.NewRegistry()
	{
		svc := queue.NewService(queue.Config{Seed: 1, Metrics: reg})
		const queues, workers, cycles = 8, 8, 2000
		for qi := 0; qi < queues; qi++ {
			svc.CreateQueue(fmt.Sprintf("q%d", qi))
		}
		var wg sync.WaitGroup
		start := time.Now()
		for qi := 0; qi < queues; qi++ {
			qn := fmt.Sprintf("q%d", qi)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < cycles; i++ {
						svc.SendMessage(qn, []byte("task"))
						m, ok, _ := svc.ReceiveMessage(qn, time.Hour)
						if ok {
							svc.DeleteMessage(qn, m.ReceiptHandle)
						}
					}
				}()
			}
		}
		wg.Wait()
		rep.ContentionOpsPerSec = float64(queues*workers*cycles) / time.Since(start).Seconds()
		recv := reg.Histogram(telemetry.Label("queue_op_ns", "op", "receive"))
		rep.ReceiveP50Ns = float64(recv.Quantile(0.50).Nanoseconds())
		rep.ReceiveP99Ns = float64(recv.Quantile(0.99).Nanoseconds())
	}

	// Dead backlog: 100k deleted + 100 live, steady-state receives.
	{
		svc := queue.NewService(queue.Config{Seed: 2})
		svc.CreateQueue("q")
		for i := 0; i < 100_000; i++ {
			svc.SendMessage("q", []byte("dead"))
			m, _, _ := svc.ReceiveMessage("q", time.Hour)
			svc.DeleteMessage("q", m.ReceiptHandle)
		}
		for i := 0; i < 100; i++ {
			svc.SendMessage("q", []byte("live"))
		}
		const n = 50_000
		start := time.Now()
		for i := 0; i < n; i++ {
			m, ok, _ := svc.ReceiveMessage("q", time.Hour)
			if ok {
				svc.ChangeVisibility("q", m.ReceiptHandle, 0)
			}
		}
		rep.DeadBacklogReceiveNs = float64(time.Since(start).Nanoseconds()) / n
	}

	// Batch billing: requests per task, single versus batched APIs.
	{
		svc := queue.NewService(queue.Config{Seed: 3})
		svc.CreateQueue("single")
		base := svc.APIRequestsFor("single")
		const tasks = 1000
		for i := 0; i < tasks; i++ {
			svc.SendMessage("single", []byte("t"))
			m, _, _ := svc.ReceiveMessage("single", time.Hour)
			svc.DeleteMessage("single", m.ReceiptHandle)
		}
		rep.SingleRequestsPerTask = float64(svc.APIRequestsFor("single")-base) / tasks

		svc.CreateQueue("batch")
		base = svc.APIRequestsFor("batch")
		bodies := make([][]byte, queue.MaxBatch)
		for i := range bodies {
			bodies[i] = []byte("t")
		}
		for done := 0; done < tasks; done += queue.MaxBatch {
			svc.SendMessageBatch("batch", bodies)
			msgs, _ := svc.ReceiveMessageBatch("batch", time.Hour, queue.MaxBatch, 0)
			receipts := make([]string, len(msgs))
			for i, m := range msgs {
				receipts[i] = m.ReceiptHandle
			}
			svc.DeleteMessageBatch("batch", receipts)
		}
		rep.BatchRequestsPerTask = float64(svc.APIRequestsFor("batch")-base) / tasks
	}

	// Long-poll wakeup latency: blocked receiver, then a send.
	{
		svc := queue.NewService(queue.Config{Seed: 4})
		svc.CreateQueue("q")
		const rounds, runs = 200, 5
		type wake struct {
			at      time.Time
			receipt string
		}
		medianRun := func() float64 {
			samples := make([]time.Duration, 0, rounds)
			for i := 0; i < rounds; i++ {
				ready := make(chan struct{})
				got := make(chan wake, 1)
				go func() {
					close(ready)
					m, ok, _ := svc.ReceiveMessageWait("q", time.Hour, 5*time.Second)
					if ok {
						got <- wake{time.Now(), m.ReceiptHandle}
					}
				}()
				<-ready
				time.Sleep(200 * time.Microsecond) // let the receiver block
				sent := time.Now()
				svc.SendMessage("q", []byte("wake"))
				w := <-got
				samples = append(samples, w.at.Sub(sent))
				// Ack through the receiver's own receipt — the message is
				// leased by it, so a fresh receive would find nothing.
				svc.DeleteMessage("q", w.receipt)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			return float64(samples[rounds/2].Nanoseconds())
		}
		best := medianRun()
		for i := 1; i < runs; i++ {
			if m := medianRun(); m < best {
				best = m
			}
		}
		rep.LongPollWakeupNs = best
	}

	fmt.Printf("contention (8 queues × 8 workers):  %12.0f cycles/s\n", rep.ContentionOpsPerSec)
	fmt.Printf("receive w/ 100k dead, 100 live:     %12.0f ns/op\n", rep.DeadBacklogReceiveNs)
	fmt.Printf("billed requests per task, single:   %12.2f\n", rep.SingleRequestsPerTask)
	fmt.Printf("billed requests per task, batched:  %12.2f\n", rep.BatchRequestsPerTask)
	fmt.Printf("long-poll wakeup latency:           %12.0f ns\n", rep.LongPollWakeupNs)
	fmt.Printf("contention receive p50/p99:         %12.0f / %.0f ns\n", rep.ReceiveP50Ns, rep.ReceiveP99Ns)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_queue.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_queue.json")
	// The raw registry, exactly as a daemon's /metrics would serve it —
	// kept as a CI artifact (not a gated baseline) so a regression
	// investigation starts from the full histograms, not two percentiles.
	// It lives under bench-artifacts/ (gitignored), never at the repo
	// root: only gated BENCH_*.json baselines are committed.
	if err := os.MkdirAll("bench-artifacts", 0o755); err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("bench-artifacts/BENCH_metrics.prom", reg.RenderProm(), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("telemetry snapshot written to bench-artifacts/BENCH_metrics.prom")
}

// shardPoint is one shard count on the scaling curve.
type shardPoint struct {
	Shards         int     `json:"shards"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	// Speedup is RequestsPerSec relative to the 1-shard run.
	Speedup float64 `json:"vs_one_shard_speedup"`
}

// shardBenchReport is the BENCH_shard.json schema: the sharded queue
// front's scaling baseline.
type shardBenchReport struct {
	// Workload shape: Queues × WorkersPerQueue workers run
	// send→receive→delete cycles through the router. Each shard is a
	// queue service with a modeled request-processing capacity
	// (ServiceConcurrency slots × ServiceTime per request) — the
	// "one service is one process" limit that sharding exists to
	// break; see queue.Config.ServiceTime.
	Queues               int          `json:"queues"`
	WorkersPerQueue      int          `json:"workers_per_queue"`
	ServiceConcurrency   int          `json:"service_concurrency"`
	ModeledServiceTimeMs float64      `json:"modeled_service_time_ms"`
	Curve                []shardPoint `json:"curve"`
	// RouterOverheadNs is the router's real per-cycle cost over calling
	// a service directly (no modeled capacity, single worker). The
	// field name deliberately avoids benchdiff's gated `_ns` suffix: a
	// difference of two noisy per-cycle averages is informational, not
	// a stable gate denominator.
	RouterOverheadNs float64 `json:"router_overhead_ns_per_cycle"`
	// RebalanceMovedFraction is the share of 256 queues that migrated
	// when a fifth shard joined four — consistent hashing should keep
	// it near 1/5.
	RebalanceMovedFraction float64 `json:"rebalance_moved_fraction"`
	// Placement is the grouped-versus-ungrouped placement study. Its
	// fields carry the `_exact` suffix: placement is a deterministic
	// function of the ring, so benchdiff gates them on strict equality
	// — the grouped metric in particular must stay exactly 0.
	Placement placementReport `json:"placement"`
}

// placementReport quantifies what placement groups buy: the number of
// queue operations in one job cycle (task send/receive/delete +
// monitor send/receive/delete = 6) that land on a shard other than the
// job's home shard. Grouped naming ("job/tasks") co-locates every
// queue of a job, so its cross-shard count is 0 by construction;
// ungrouped naming ("job-tasks") scatters the job's queues across the
// ring.
type placementReport struct {
	Jobs   int `json:"jobs"`
	Shards int `json:"shards"`
	// Cross-shard ops per 6-op job cycle.
	GroupedCrossOps   float64 `json:"grouped_cross_shard_ops_per_cycle_exact"`
	UngroupedCrossOps float64 `json:"ungrouped_cross_shard_ops_per_cycle_exact"`
	// Distinct shards touched by one job's three queues (tasks,
	// monitor, dead-letter); 1.0 means fully co-located.
	GroupedShardsPerJob   float64 `json:"grouped_shards_per_job_exact"`
	UngroupedShardsPerJob float64 `json:"ungrouped_shards_per_job_exact"`
}

// queueShard measures the consistent-hash queue front: aggregate
// throughput of the contention workload against 1/2/4/8 shards of
// fixed per-shard capacity, the router's own overhead, and the
// rebalancing cost of growing the ring. Results go to BENCH_shard.json.
func queueShard() {
	// 8 workers per queue oversubscribes every shard (a shard owning
	// even 2 of the 64 queues sees more demand than its 16 slots can
	// serve), so each point on the curve measures capacity, not the
	// workload's shape — which is what keeps the committed numbers
	// reproducible enough to gate CI.
	rep := shardBenchReport{
		Queues:               64,
		WorkersPerQueue:      8,
		ServiceConcurrency:   16,
		ModeledServiceTimeMs: 1,
	}
	const cyclesPerWorker = 20

	runCurve := func(nShards int) (cyclesPerSec, requestsPerSec float64, err error) {
		router := shard.NewRouter(shard.Config{})
		defer router.Close()
		for i := 0; i < nShards; i++ {
			svc := queue.NewService(queue.Config{
				Seed:               int64(i + 1),
				ServiceTime:        time.Duration(rep.ModeledServiceTimeMs * float64(time.Millisecond)),
				ServiceConcurrency: rep.ServiceConcurrency,
			})
			if err := router.AddShard(fmt.Sprintf("s%d", i), svc); err != nil {
				return 0, 0, err
			}
		}
		for q := 0; q < rep.Queues; q++ {
			if err := router.CreateQueue(fmt.Sprintf("q%d", q)); err != nil {
				return 0, 0, err
			}
		}
		baseReq := router.APIRequests()
		var wg sync.WaitGroup
		start := time.Now()
		for q := 0; q < rep.Queues; q++ {
			qn := fmt.Sprintf("q%d", q)
			for w := 0; w < rep.WorkersPerQueue; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < cyclesPerWorker; i++ {
						router.SendMessage(qn, []byte("task"))
						m, ok, _ := router.ReceiveMessageWait(qn, time.Hour, 50*time.Millisecond)
						if ok {
							router.DeleteMessage(qn, m.ReceiptHandle)
						}
					}
				}()
			}
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		cycles := float64(rep.Queues * rep.WorkersPerQueue * cyclesPerWorker)
		return cycles / elapsed, float64(router.APIRequests()-baseReq) / elapsed, nil
	}

	// Best of 2 per point: a run degraded by background load would
	// otherwise poison the baseline (or a CI comparison) for every
	// later measurement.
	var oneShard float64
	for _, n := range []int{1, 2, 4, 8} {
		var cps, rps float64
		for run := 0; run < 2; run++ {
			c, q, err := runCurve(n)
			if err != nil {
				fail(err)
				return
			}
			if q > rps {
				cps, rps = c, q
			}
		}
		if n == 1 {
			oneShard = rps
		}
		rep.Curve = append(rep.Curve, shardPoint{
			Shards:         n,
			CyclesPerSec:   cps,
			RequestsPerSec: rps,
			Speedup:        rps / oneShard,
		})
	}

	// Router overhead: one real (unthrottled) shard versus calling the
	// service directly.
	{
		const cycles = 20_000
		cycle := func(api queue.API) float64 {
			api.CreateQueue("bench")
			start := time.Now()
			for i := 0; i < cycles; i++ {
				api.SendMessage("bench", []byte("t"))
				m, ok, _ := api.ReceiveMessage("bench", time.Hour)
				if ok {
					api.DeleteMessage("bench", m.ReceiptHandle)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / cycles
		}
		direct := cycle(queue.NewService(queue.Config{Seed: 1}))
		router := shard.NewRouter(shard.Config{})
		router.AddShard("s0", queue.NewService(queue.Config{Seed: 1}))
		routed := cycle(router)
		router.Close()
		rep.RouterOverheadNs = routed - direct
	}

	// Rebalance: the fraction of queues a fifth shard pulls off four.
	{
		router := shard.NewRouter(shard.Config{})
		for i := 0; i < 4; i++ {
			router.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)}))
		}
		const n = 256
		for q := 0; q < n; q++ {
			router.CreateQueue(fmt.Sprintf("job-%d-tasks", q))
		}
		before := router.Owners()
		router.AddShard("s4", queue.NewService(queue.Config{Seed: 5}))
		moved := 0
		for qn, owner := range router.Owners() {
			if before[qn] != owner {
				moved++
			}
		}
		router.Close()
		rep.RebalanceMovedFraction = float64(moved) / n
	}

	// Placement groups: cross-shard queue ops per job cycle, grouped
	// ("job/queue" names hash by job) versus ungrouped ("job-queue"
	// names hash individually). Placement is deterministic, so these
	// commit as exact-gated metrics.
	{
		const jobs, nShards = 64, 4
		study := func(sep string) (crossOps, shardsPerJob float64, err error) {
			router := shard.NewRouter(shard.Config{})
			defer router.Close()
			for i := 0; i < nShards; i++ {
				if err := router.AddShard(fmt.Sprintf("s%d", i), queue.NewService(queue.Config{Seed: int64(i + 1)})); err != nil {
					return 0, 0, err
				}
			}
			suffixes := []string{"tasks", "monitor", "dead"}
			for j := 0; j < jobs; j++ {
				for _, sfx := range suffixes {
					if err := router.CreateQueue(fmt.Sprintf("job-%d%s%s", j, sep, sfx)); err != nil {
						return 0, 0, err
					}
				}
			}
			owners := router.Owners()
			cross, distinct := 0, 0
			for j := 0; j < jobs; j++ {
				name := func(sfx string) string { return fmt.Sprintf("job-%d%s%s", j, sep, sfx) }
				home := owners[name("tasks")]
				seen := map[string]bool{}
				for _, sfx := range suffixes {
					seen[owners[name(sfx)]] = true
				}
				distinct += len(seen)
				// One happy-path cycle is 6 ops: 3 on the task queue
				// (send, receive, delete — on the home shard by
				// definition) and 3 on the monitor queue.
				if owners[name("monitor")] != home {
					cross += 3
				}
			}
			return float64(cross) / jobs, float64(distinct) / jobs, nil
		}
		rep.Placement.Jobs, rep.Placement.Shards = jobs, nShards
		var err error
		rep.Placement.GroupedCrossOps, rep.Placement.GroupedShardsPerJob, err = study("/")
		if err != nil {
			// Abort before the file write: a zeroed placement section
			// committed as an exact-gated baseline would fail every
			// future CI run.
			fail(err)
			return
		}
		rep.Placement.UngroupedCrossOps, rep.Placement.UngroupedShardsPerJob, err = study("-")
		if err != nil {
			fail(err)
			return
		}
		if rep.Placement.GroupedCrossOps != 0 {
			fail(fmt.Errorf("grouped placement leaked %v cross-shard ops/cycle, want 0",
				rep.Placement.GroupedCrossOps))
			return
		}
	}

	fmt.Printf("workload: %d queues × %d workers, shards of %d×%.0fms request slots\n",
		rep.Queues, rep.WorkersPerQueue, rep.ServiceConcurrency, rep.ModeledServiceTimeMs)
	for _, p := range rep.Curve {
		fmt.Printf("%2d shard(s): %8.0f cycles/s  %8.0f req/s  speedup %.2fx\n",
			p.Shards, p.CyclesPerSec, p.RequestsPerSec, p.Speedup)
	}
	fmt.Printf("router overhead:           %8.0f ns/cycle\n", rep.RouterOverheadNs)
	fmt.Printf("rebalance moved fraction:  %8.3f (ideal %.3f)\n", rep.RebalanceMovedFraction, 1.0/5)
	fmt.Printf("placement (%d jobs × 3 queues over %d shards):\n", rep.Placement.Jobs, rep.Placement.Shards)
	fmt.Printf("  grouped:   %5.2f cross-shard ops/cycle, %4.2f shards/job\n",
		rep.Placement.GroupedCrossOps, rep.Placement.GroupedShardsPerJob)
	fmt.Printf("  ungrouped: %5.2f cross-shard ops/cycle, %4.2f shards/job\n",
		rep.Placement.UngroupedCrossOps, rep.Placement.UngroupedShardsPerJob)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_shard.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_shard.json")
}

// skewBenchReport is the BENCH_skew.json schema: what the load-aware
// ring buys on a Zipf-skewed workload — one hot job among many cold
// ones. The pinned run is the pre-split world (all of the hot group's
// queues on ONE shard, the placement-group guarantee working against
// the workload); the split run lets the shard autoscaler's policy
// observe the skew and fan the hot group out across sub-arcs.
type skewBenchReport struct {
	Shards               int     `json:"shards"`
	ServiceConcurrency   int     `json:"service_concurrency"`
	ModeledServiceTimeMs float64 `json:"modeled_service_time_ms"`
	HotQueues            int     `json:"hot_queues"`
	WorkersPerHotQueue   int     `json:"workers_per_hot_queue"`
	ColdJobs             int     `json:"cold_jobs"`
	// PinnedRequestsPerSec / SplitRequestsPerSec are the same skewed
	// workload with the hot group pinned to one shard versus split by
	// the autoscaler; SkewSpeedup is their ratio, the number hot-group
	// splitting exists to move.
	PinnedRequestsPerSec float64 `json:"pinned_requests_per_sec"`
	SplitRequestsPerSec  float64 `json:"split_requests_per_sec"`
	SkewSpeedup          float64 `json:"skew_speedup"`
	// HotSubgroups / HotShards describe the fan-out the policy reached
	// during warmup (informational: the doubling schedule can stop a
	// step early on a slow machine).
	HotSubgroups float64 `json:"hot_subgroups"`
	HotShards    float64 `json:"hot_shards_after_split"`
	// SplitFired (1) and PinnedSplits (0) are exact-gated invariants:
	// the policy must split the unpinned hot group and must respect the
	// pin opt-out.
	SplitFired   float64 `json:"hot_split_fired_exact"`
	PinnedSplits float64 `json:"pinned_split_count_exact"`
	// ProbeDeliveries is the delivery count a probe message shows after
	// being received once, then migrated by the split AND the merge
	// back: exactly 2 (1 prior receive + the final one) proves the
	// drains carried counts instead of resetting them.
	ProbeDeliveries float64 `json:"probe_delivery_count_exact"`
}

// queueSkew measures hot-group splitting end to end: a Zipf-skewed
// workload (one job with 16 heavily-loaded queues, 63 jobs with one
// lightly-loaded queue each) against 8 capacity-throttled shards,
// pinned versus autoscaler-split, with the split/merge lifecycle and
// count preservation checked along the way. Results go to
// BENCH_skew.json; the speedup is the gated headline.
func queueSkew() {
	rep := skewBenchReport{
		Shards:               8,
		ServiceConcurrency:   16,
		ModeledServiceTimeMs: 1,
		HotQueues:            16,
		WorkersPerHotQueue:   8,
		ColdJobs:             63,
	}
	const (
		cyclesPerWorker = 20
		coldCycles      = 5
		probes          = 4
		probeVisibility = 30 * time.Millisecond
	)

	hotQueue := func(q int) string { return fmt.Sprintf("hot/q%d", q) }

	runSkew := func(pinned bool) (rps float64, subgroups, hotShards, probeReceives int, err error) {
		router := shard.NewRouter(shard.Config{})
		defer router.Close()
		for i := 0; i < rep.Shards; i++ {
			svc := queue.NewService(queue.Config{
				Seed:               int64(i + 1),
				ServiceTime:        time.Duration(rep.ModeledServiceTimeMs * float64(time.Millisecond)),
				ServiceConcurrency: rep.ServiceConcurrency,
			})
			if err := router.AddShard(fmt.Sprintf("s%d", i), svc); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		for q := 0; q < rep.HotQueues; q++ {
			if err := router.CreateQueue(hotQueue(q)); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		if err := router.CreateQueue("hot/probe"); err != nil {
			return 0, 0, 0, 0, err
		}
		for j := 0; j < rep.ColdJobs; j++ {
			if err := router.CreateQueue(fmt.Sprintf("cold-%d/q", j)); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		if pinned {
			if err := router.PinGroup("hot", true); err != nil {
				return 0, 0, 0, 0, err
			}
		}

		// Probe messages ride through every later migration: received
		// once now, left to expire, so the split's drain transfers them
		// carrying a non-zero delivery count.
		for i := 0; i < probes; i++ {
			if _, err := router.SendMessage("hot/probe", []byte(fmt.Sprintf("p%d", i))); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		for got := 0; got < probes; {
			_, ok, err := router.ReceiveMessage("hot/probe", probeVisibility)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if ok {
				got++
			}
		}
		time.Sleep(2 * probeVisibility) // leases lapse; probes visible again

		worker := func(wg *sync.WaitGroup, qn string, cycles int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				router.SendMessage(qn, []byte("task"))
				m, ok, _ := router.ReceiveMessageWait(qn, time.Hour, 50*time.Millisecond)
				if ok {
					router.DeleteMessage(qn, m.ReceiptHandle)
				}
			}
		}

		// Warmup: drive skewed load and tick the autoscaler until its
		// policy has fanned the hot group out (or, pinned, until it has
		// had every chance to misbehave). The fleet is clamped to the 8
		// shards so this experiment isolates splitting.
		auto := shard.NewAutoscaler(router, shard.AutoscalerConfig{Policy: shard.AutoscalePolicy{
			MinShards:          rep.Shards,
			MaxShards:          rep.Shards,
			TargetRatePerShard: 50_000,
			SplitRate:          2000,
			SplitCooldown:      time.Millisecond,
			Window:             2,
		}})
		defer auto.Close()
		for round := 0; round < 8; round++ {
			var wg sync.WaitGroup
			for q := 0; q < rep.HotQueues; q++ {
				wg.Add(1)
				go worker(&wg, hotQueue(q), 10)
			}
			wg.Wait()
			auto.Tick(time.Now())
			if router.Splits()["hot"] >= 8 {
				break
			}
		}
		subgroups = router.Splits()["hot"]
		if subgroups == 0 {
			subgroups = 1
		}
		seen := map[string]bool{}
		for qn, owner := range router.Owners() {
			if strings.HasPrefix(qn, "hot/") {
				seen[owner] = true
			}
		}
		hotShards = len(seen)
		if pinned && len(router.Splits()) != 0 {
			return 0, 0, 0, 0, fmt.Errorf("policy split pinned group: %v", router.Splits())
		}
		if !pinned && subgroups < 2 {
			return 0, 0, 0, 0, fmt.Errorf("policy never split the hot group (splits %v)", router.Splits())
		}

		// Measured phase: pure load, no policy ticks, so both variants
		// run the identical request stream against a stable topology.
		baseReq := router.APIRequests()
		start := time.Now()
		var wg sync.WaitGroup
		for q := 0; q < rep.HotQueues; q++ {
			for w := 0; w < rep.WorkersPerHotQueue; w++ {
				wg.Add(1)
				go worker(&wg, hotQueue(q), cyclesPerWorker)
			}
		}
		for j := 0; j < rep.ColdJobs; j++ {
			wg.Add(1)
			go worker(&wg, fmt.Sprintf("cold-%d/q", j), coldCycles)
		}
		wg.Wait()
		rps = float64(router.APIRequests()-baseReq) / time.Since(start).Seconds()

		// Cooldown: quiet ticks must merge the split group back under
		// hysteresis (probes alone are far below the merge watermark).
		for round := 0; round < 10 && len(router.Splits()) > 0; round++ {
			time.Sleep(10 * time.Millisecond)
			auto.Tick(time.Now())
		}
		if len(router.Splits()) != 0 {
			return 0, 0, 0, 0, fmt.Errorf("split groups never merged back: %v", router.Splits())
		}

		// The probes migrated out with the split and home with the
		// merge; their delivery counts must have ridden along.
		for got := 0; got < probes; {
			m, ok, err := router.ReceiveMessage("hot/probe", time.Hour)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if !ok {
				return 0, 0, 0, 0, fmt.Errorf("probe message lost across split/merge (got %d of %d)", got, probes)
			}
			if probeReceives == 0 || m.Receives < probeReceives {
				probeReceives = m.Receives
			}
			if m.Receives != 2 {
				return 0, 0, 0, 0, fmt.Errorf("probe delivery count %d after split+merge, want 2 (count reset in transit?)", m.Receives)
			}
			got++
		}
		return rps, subgroups, hotShards, probeReceives, nil
	}

	// Best of 2 per variant, like the shard curve: one descheduled run
	// must not poison a committed gate.
	best := func(pinned bool) (rps float64, subgroups, hotShards, probeReceives int, err error) {
		for run := 0; run < 2; run++ {
			r, s, h, p, e := runSkew(pinned)
			if e != nil {
				return 0, 0, 0, 0, e
			}
			if r > rps {
				rps, subgroups, hotShards, probeReceives = r, s, h, p
			}
		}
		return rps, subgroups, hotShards, probeReceives, nil
	}

	pinnedRPS, _, _, _, err := best(true)
	if err != nil {
		fail(err)
		return
	}
	splitRPS, subgroups, hotShards, probeReceives, err := best(false)
	if err != nil {
		fail(err)
		return
	}
	rep.PinnedRequestsPerSec = pinnedRPS
	rep.SplitRequestsPerSec = splitRPS
	rep.SkewSpeedup = splitRPS / pinnedRPS
	rep.HotSubgroups = float64(subgroups)
	rep.HotShards = float64(hotShards)
	rep.SplitFired = 1
	rep.PinnedSplits = 0
	rep.ProbeDeliveries = float64(probeReceives)

	fmt.Printf("workload: 1 hot job (%d queues × %d workers) + %d cold jobs, %d shards of %d×%.0fms slots\n",
		rep.HotQueues, rep.WorkersPerHotQueue, rep.ColdJobs, rep.Shards, rep.ServiceConcurrency, rep.ModeledServiceTimeMs)
	fmt.Printf("pinned (1 shard for the hot group): %10.0f req/s\n", rep.PinnedRequestsPerSec)
	fmt.Printf("split  (%d sub-arcs over %d shards): %10.0f req/s\n", subgroups, hotShards, rep.SplitRequestsPerSec)
	fmt.Printf("speedup: %.2fx   probe delivery count after split+merge: %d\n", rep.SkewSpeedup, probeReceives)
	if rep.SkewSpeedup < 2.5 {
		fail(fmt.Errorf("skew speedup %.2fx below the 2.5x acceptance floor", rep.SkewSpeedup))
		return
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_skew.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_skew.json")
}

// wirePoint is one shard count measured over both transports.
type wirePoint struct {
	Shards             int     `json:"shards"`
	HTTPRequestsPerSec float64 `json:"http_requests_per_sec"`
	WireRequestsPerSec float64 `json:"wire_requests_per_sec"`
	// Speedup is wire over HTTP requests/s at the same shard count —
	// the number the wire protocol exists to move.
	Speedup float64 `json:"wire_vs_http_speedup"`
}

// wireBenchReport is the BENCH_wire.json schema: the binary wire
// transport versus the JSON/HTTP face on the sharded contention
// workload. Unlike BENCH_shard.json the shards here are NOT
// capacity-throttled (no ServiceTime): the transport is deliberately
// the bottleneck, so the curve isolates per-request encoding and
// framing cost rather than modeled service capacity.
type wireBenchReport struct {
	Queues          int         `json:"queues"`
	WorkersPerQueue int         `json:"workers_per_queue"`
	Curve           []wirePoint `json:"curve"`
	// Harness-side receive latency at the top (8-shard) point, in
	// nanoseconds from calling ReceiveMessageWait on the router to its
	// return — transport round trip plus router routing, the latency a
	// worker actually experiences.
	HTTPReceiveP50Ns float64 `json:"http_receive_p50_ns"`
	HTTPReceiveP99Ns float64 `json:"http_receive_p99_ns"`
	WireReceiveP50Ns float64 `json:"wire_receive_p50_ns"`
	WireReceiveP99Ns float64 `json:"wire_receive_p99_ns"`
}

// queueWire re-runs the shard contention curve with real remote shards
// — every backend behind a loopback listener — once over the JSON/HTTP
// client and once over the binary wire client, and reports the
// throughput ratio. Results go to BENCH_wire.json; CI gates the ratio,
// so a change that quietly fattens the hot path fails the bench job.
func queueWire() {
	rep := wireBenchReport{Queues: 64, WorkersPerQueue: 4}
	const cyclesPerWorker = 25
	const token = "bench-transfer"

	// runCurve measures one (shard count, transport) cell: aggregate
	// billed requests/s through the router and every receive's latency.
	runCurve := func(nShards int, useWire bool) (rps float64, recvNs []float64, err error) {
		router := shard.NewRouter(shard.Config{})
		defer router.Close()
		var cleanups []func()
		defer func() {
			for i := len(cleanups) - 1; i >= 0; i-- {
				cleanups[i]()
			}
		}()
		for i := 0; i < nShards; i++ {
			svc := queue.NewService(queue.Config{Seed: int64(i + 1)})
			hs := httptest.NewServer(&queue.HTTPHandler{Service: svc, AdminTokens: []string{token}})
			cleanups = append(cleanups, hs.Close)
			httpc := &queue.HTTPClient{BaseURL: hs.URL, AdminToken: token}
			backend := queue.API(httpc)
			if useWire {
				ln, lerr := net.Listen("tcp", "127.0.0.1:0")
				if lerr != nil {
					return 0, nil, lerr
				}
				ws := &wire.Server{Service: svc, AdminTokens: []string{token}}
				go ws.Serve(ln)
				cleanups = append(cleanups, func() { ws.Close() })
				wc := wire.Dial(ln.Addr().String(), wire.Options{AdminToken: token, Fallback: httpc})
				cleanups = append(cleanups, func() { wc.Close() })
				backend = wc
			}
			if err := router.AddShard(fmt.Sprintf("s%d", i), backend); err != nil {
				return 0, nil, err
			}
		}
		for q := 0; q < rep.Queues; q++ {
			if err := router.CreateQueue(fmt.Sprintf("q%d", q)); err != nil {
				return 0, nil, err
			}
		}
		baseReq := router.APIRequests()
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for q := 0; q < rep.Queues; q++ {
			qn := fmt.Sprintf("q%d", q)
			for w := 0; w < rep.WorkersPerQueue; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lat := make([]float64, 0, cyclesPerWorker)
					for i := 0; i < cyclesPerWorker; i++ {
						router.SendMessage(qn, []byte("task-payload-for-the-transport-benchmark"))
						t0 := time.Now()
						m, ok, _ := router.ReceiveMessageWait(qn, time.Hour, 50*time.Millisecond)
						lat = append(lat, float64(time.Since(t0).Nanoseconds()))
						if ok {
							router.DeleteMessage(qn, m.ReceiptHandle)
						}
					}
					mu.Lock()
					recvNs = append(recvNs, lat...)
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		return float64(router.APIRequests()-baseReq) / elapsed, recvNs, nil
	}

	percentile := func(sorted []float64, p float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[int(p*float64(len(sorted)-1))]
	}

	// Best of 2 per cell, as in queueShard: one descheduled run must
	// not poison a committed baseline or a CI comparison.
	for _, n := range []int{1, 2, 4, 8} {
		p := wirePoint{Shards: n}
		for run := 0; run < 2; run++ {
			rps, lat, err := runCurve(n, false)
			if err != nil {
				fail(err)
				return
			}
			if rps > p.HTTPRequestsPerSec {
				p.HTTPRequestsPerSec = rps
				if n == 8 {
					sort.Float64s(lat)
					rep.HTTPReceiveP50Ns = percentile(lat, 0.50)
					rep.HTTPReceiveP99Ns = percentile(lat, 0.99)
				}
			}
			rps, lat, err = runCurve(n, true)
			if err != nil {
				fail(err)
				return
			}
			if rps > p.WireRequestsPerSec {
				p.WireRequestsPerSec = rps
				if n == 8 {
					sort.Float64s(lat)
					rep.WireReceiveP50Ns = percentile(lat, 0.50)
					rep.WireReceiveP99Ns = percentile(lat, 0.99)
				}
			}
		}
		p.Speedup = p.WireRequestsPerSec / p.HTTPRequestsPerSec
		rep.Curve = append(rep.Curve, p)
	}

	fmt.Printf("workload: %d queues × %d workers, remote shards over loopback\n",
		rep.Queues, rep.WorkersPerQueue)
	for _, p := range rep.Curve {
		fmt.Printf("%2d shard(s): http %8.0f req/s   wire %8.0f req/s   %.2fx\n",
			p.Shards, p.HTTPRequestsPerSec, p.WireRequestsPerSec, p.Speedup)
	}
	fmt.Printf("receive p50/p99 at 8 shards: http %.0f/%.0f ns   wire %.0f/%.0f ns\n",
		rep.HTTPReceiveP50Ns, rep.HTTPReceiveP99Ns, rep.WireReceiveP50Ns, rep.WireReceiveP99Ns)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_wire.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_wire.json")
}

// brokerRecoverReport is the BENCH_broker.json schema: the durability
// layer's baseline numbers, recorded so later changes (journal
// compaction, snapshotting) can be compared against this commit.
type brokerRecoverReport struct {
	// Replay measures crash recovery: jobs/s a fresh broker re-adopts by
	// replaying journals of the given length.
	Replay []replayPoint `json:"replay"`
	// JournalAppendsPerTask is the steady-state blob-append overhead of
	// journaling, in billed PUT requests per task.
	JournalAppendsPerTask float64 `json:"journal_appends_per_task"`
	// AppendOverheadNsPerTask is the wall-clock cost of journaling per
	// task: (journaled run − unjournaled run) / tasks.
	AppendOverheadNsPerTask float64 `json:"append_overhead_ns_per_task"`
}

type replayPoint struct {
	JournalEvents int     `json:"journal_events"`
	Jobs          int     `json:"jobs"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
	EventsPerSec  float64 `json:"events_per_sec"`
}

// writeSyntheticJournal appends one completed-job journal of exactly
// nEvents entries (submitted + checkpoints + completed) to the journal
// bucket, via the broker's shared fixture builder.
func writeSyntheticJournal(store *blob.Store, jobID string, nEvents int) error {
	doc, err := broker.SyntheticJournal(nEvents-2, time.Unix(1_000_000, 0))
	if err != nil {
		return err
	}
	_, err = store.Append("broker-journal", "jobs/"+jobID, doc)
	return err
}

// brokerRecover benchmarks the event-sourced control plane: journal
// replay throughput as a function of journal length, and the
// steady-state append overhead journaling adds to each task. Results go
// to BENCH_broker.json.
func brokerRecover() {
	rep := brokerRecoverReport{}

	// Replay rate: populate a journal bucket with completed-job journals
	// of a fixed length, then time a fresh broker's Recover.
	for _, nEvents := range []int{16, 128, 1024} {
		jobs := 4096 / nEvents
		env := classiccloud.Env{
			Blob:  blob.NewStore(blob.Config{}),
			Queue: queue.NewService(queue.Config{Seed: 5}),
		}
		if err := env.Blob.CreateBucket("broker-journal"); err != nil {
			fail(err)
			return
		}
		for k := 0; k < jobs; k++ {
			if err := writeSyntheticJournal(env.Blob, fmt.Sprintf("job-%04d", k+1), nEvents); err != nil {
				fail(err)
				return
			}
		}
		bk := broker.New(broker.Config{Env: env})
		start := time.Now()
		if _, err := bk.Recover(); err != nil {
			fail(err)
			return
		}
		elapsed := time.Since(start).Seconds()
		bk.Close()
		rep.Replay = append(rep.Replay, replayPoint{
			JournalEvents: nEvents,
			Jobs:          jobs,
			JobsPerSec:    float64(jobs) / elapsed,
			EventsPerSec:  float64(jobs*nEvents) / elapsed,
		})
	}

	// Append overhead: the same live workload with and without the
	// journal; the PUT-request delta is the appends, the wall delta the
	// latency cost.
	const tasks = 128
	files, err := workload.Cap3FileSet(13, tasks, 20, 600, 0)
	if err != nil {
		fail(err)
		return
	}
	run := func(journalBucket string) (time.Duration, int64, error) {
		env := classiccloud.Env{
			Blob:  blob.NewStore(blob.Config{}),
			Queue: queue.NewService(queue.Config{Seed: 6}),
		}
		bk := broker.New(broker.Config{
			Env:           env,
			TickInterval:  2 * time.Millisecond,
			JournalBucket: journalBucket,
			Autoscale: broker.AutoscalePolicy{
				MinInstances: 2, MaxInstances: 2,
			},
		})
		defer bk.Close()
		base := env.Blob.Usage().PutRequests
		start := time.Now()
		j, err := bk.Submit(broker.JobRequest{App: "cap3", Files: files})
		if err != nil {
			return 0, 0, err
		}
		if err := j.Wait(60 * time.Second); err != nil {
			return 0, 0, err
		}
		return time.Since(start), env.Blob.Usage().PutRequests - base, nil
	}
	// Best-of-3 per config: scheduler noise on an oversubscribed CI
	// machine dwarfs the per-task append cost, and minima compare the
	// clean runs.
	best := func(journalBucket string) (time.Duration, int64, error) {
		var bestTime time.Duration
		var puts int64
		for i := 0; i < 3; i++ {
			d, p, err := run(journalBucket)
			if err != nil {
				return 0, 0, err
			}
			if bestTime == 0 || d < bestTime {
				bestTime, puts = d, p
			}
		}
		return bestTime, puts, nil
	}
	journaledTime, journaledPuts, err := best("broker-journal")
	if err != nil {
		fail(err)
		return
	}
	plainTime, plainPuts, err := best(broker.DisableJournal)
	if err != nil {
		fail(err)
		return
	}
	rep.JournalAppendsPerTask = float64(journaledPuts-plainPuts) / tasks
	rep.AppendOverheadNsPerTask = float64(journaledTime-plainTime) / tasks

	for _, p := range rep.Replay {
		fmt.Printf("replay %5d-event journals: %8.0f jobs/s  %10.0f events/s\n",
			p.JournalEvents, p.JobsPerSec, p.EventsPerSec)
	}
	fmt.Printf("journal appends per task:        %8.2f\n", rep.JournalAppendsPerTask)
	fmt.Printf("append overhead per task:        %8.0f ns\n", rep.AppendOverheadNsPerTask)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_broker.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_broker.json")
}

// durableRecoveryPoint is one journal length on the recovery curve.
type durableRecoveryPoint struct {
	// Messages live in the queue at the simulated crash; TailRecords is
	// the journal length Recover actually folds.
	Messages    int `json:"messages"`
	TailRecords int `json:"journal_tail_records"`
	// RecoverMsgsPerSec is the fold rate: live messages restored per
	// second of Recover wall time.
	RecoverMsgsPerSec float64 `json:"recover_msgs_per_sec"`
}

// durableBenchReport is the BENCH_durable.json schema: what write-ahead
// journaling costs the queue hot path and what it buys back at
// recovery and failover time.
type durableBenchReport struct {
	// Workload shape for the two cycles-per-second fields: Queues ×
	// Workers run send→receive→delete cycles on one service, ephemeral
	// versus journaling every mutation to the blob store.
	Queues                int     `json:"queues"`
	Workers               int     `json:"workers_per_queue"`
	EphemeralCyclesPerSec float64 `json:"ephemeral_cycles_per_sec"`
	DurableCyclesPerSec   float64 `json:"durable_cycles_per_sec"`
	// JournalCostRatio is ephemeral/durable — the hot-path price of
	// durability, informational (the two gated _per_sec fields carry
	// the regression protection).
	JournalCostRatio float64 `json:"journal_cost_ratio"`
	// Recovery folds journals of increasing length on a cold service.
	Recovery []durableRecoveryPoint `json:"recovery"`
	// Exact invariants of the recovery contract: the folded state
	// reproduces queue depth and per-message delivery counts exactly,
	// and compaction keeps the journal tail under SnapshotEvery.
	DepthMatch         float64 `json:"recover_depth_match_exact"`
	ReceivesPreserved  float64 `json:"recover_receives_preserved_exact"`
	SnapshotBoundsTail float64 `json:"snapshot_bounds_tail_exact"`
	// PromoteNs is the failover hand-off: Halt the primary, promote a
	// caught-up follower, in nanoseconds until the promoted service
	// answers. The paper's queue argument inverted — here the shared
	// journal is what makes the worker-role shard disposable.
	PromoteNs float64 `json:"failover_promote_ns"`
}

// queueDurable measures the durability layer end to end: hot-path
// journaling cost against the ephemeral core, cold-recovery fold rate
// versus journal length, the exactness invariants CI pins, and the
// promotion latency of a warm follower. Results go to
// BENCH_durable.json.
func queueDurable() {
	rep := durableBenchReport{Queues: 4, Workers: 4}
	const cycles = 400

	// Hot path: the contention shape of queueBench, once ephemeral and
	// once with every mutation journaled. Best of 2 per variant.
	contention := func(dur *queue.Durability) (float64, error) {
		svc := queue.NewService(queue.Config{Seed: 1, Durability: dur})
		if dur != nil {
			if err := svc.Recover(); err != nil {
				return 0, err
			}
		}
		for qi := 0; qi < rep.Queues; qi++ {
			if err := svc.CreateQueue(fmt.Sprintf("q%d", qi)); err != nil {
				return 0, err
			}
		}
		var wg sync.WaitGroup
		start := time.Now()
		for qi := 0; qi < rep.Queues; qi++ {
			qn := fmt.Sprintf("q%d", qi)
			for w := 0; w < rep.Workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < cycles; i++ {
						svc.SendMessage(qn, []byte("task"))
						m, ok, _ := svc.ReceiveMessage(qn, time.Hour)
						if ok {
							svc.DeleteMessage(qn, m.ReceiptHandle)
						}
					}
				}()
			}
		}
		wg.Wait()
		return float64(rep.Queues*rep.Workers*cycles) / time.Since(start).Seconds(), nil
	}
	best := func(dur func() *queue.Durability) (float64, error) {
		var top float64
		for run := 0; run < 2; run++ {
			v, err := contention(dur())
			if err != nil {
				return 0, err
			}
			if v > top {
				top = v
			}
		}
		return top, nil
	}
	var err error
	if rep.EphemeralCyclesPerSec, err = best(func() *queue.Durability { return nil }); err != nil {
		fail(err)
		return
	}
	if rep.DurableCyclesPerSec, err = best(func() *queue.Durability {
		return &queue.Durability{
			Store: blob.NewStore(blob.Config{}), Bucket: "j", Key: "bench",
		}
	}); err != nil {
		fail(err)
		return
	}
	rep.JournalCostRatio = rep.EphemeralCyclesPerSec / rep.DurableCyclesPerSec

	// Recovery fold rate: a crashed shard's journal of N uncompacted
	// send records, folded by a cold service.
	for _, n := range []int{1_000, 8_000} {
		store := blob.NewStore(blob.Config{})
		dur := &queue.Durability{Store: store, Bucket: "j", Key: "crash", SnapshotEvery: -1}
		w := queue.NewService(queue.Config{Seed: 2, Durability: dur})
		if err := w.Recover(); err != nil {
			fail(err)
			return
		}
		if err := w.CreateQueue("q"); err != nil {
			fail(err)
			return
		}
		for i := 0; i < n; i++ {
			if _, err := w.SendMessage("q", []byte("m")); err != nil {
				fail(err)
				return
			}
		}
		w.Halt()
		cold := queue.NewService(queue.Config{Seed: 2, Durability: dur})
		start := time.Now()
		if err := cold.Recover(); err != nil {
			fail(err)
			return
		}
		elapsed := time.Since(start).Seconds()
		vis, inf, err := cold.ApproximateCount("q")
		if err != nil || vis != n || inf != 0 {
			fail(fmt.Errorf("recovered depth %d/%d (err %v), want %d/0", vis, inf, err, n))
			return
		}
		rep.Recovery = append(rep.Recovery, durableRecoveryPoint{
			Messages:          n,
			TailRecords:       n + 2, // genesis + create + n sends
			RecoverMsgsPerSec: float64(n) / elapsed,
		})
		store.Delete("j", "crash")
	}
	rep.DepthMatch = 1

	// Delivery counts survive the crash: receive a message twice, kill,
	// recover, and the third receive must say Receives=3 — the property
	// that keeps a poison message's dead-letter budget honest.
	{
		store := blob.NewStore(blob.Config{})
		dur := &queue.Durability{Store: store, Bucket: "j", Key: "counts"}
		w := queue.NewService(queue.Config{Seed: 3, Durability: dur})
		if err := w.Recover(); err != nil {
			fail(err)
			return
		}
		w.CreateQueue("q")
		w.SendMessage("q", []byte("poison"))
		for i := 0; i < 2; i++ {
			m, ok, err := w.ReceiveMessage("q", time.Hour)
			if err != nil || !ok {
				fail(fmt.Errorf("receive %d: %v ok=%v", i, err, ok))
				return
			}
			w.ChangeVisibility("q", m.ReceiptHandle, 0)
		}
		w.Halt()
		cold := queue.NewService(queue.Config{Seed: 3, Durability: dur})
		if err := cold.Recover(); err != nil {
			fail(err)
			return
		}
		m, ok, err := cold.ReceiveMessage("q", time.Hour)
		if err != nil || !ok {
			fail(fmt.Errorf("post-recovery receive: %v ok=%v", err, ok))
			return
		}
		if m.Receives != 3 {
			fail(fmt.Errorf("recovered delivery count %d, want 3", m.Receives))
			return
		}
		rep.ReceivesPreserved = 1
	}

	// Compaction bounds the tail: after far more records than
	// SnapshotEvery, the journal holds a snapshot plus a short tail.
	{
		const snapEvery, sends = 64, 1_000
		store := blob.NewStore(blob.Config{})
		dur := &queue.Durability{Store: store, Bucket: "j", Key: "snap", SnapshotEvery: snapEvery}
		w := queue.NewService(queue.Config{Seed: 4, Durability: dur})
		if err := w.Recover(); err != nil {
			fail(err)
			return
		}
		w.CreateQueue("q")
		for i := 0; i < sends; i++ {
			w.SendMessage("q", []byte("m"))
		}
		v, err := (journal.Log{Store: store, Bucket: "j", Key: "snap"}).Load()
		if err != nil {
			fail(err)
			return
		}
		if v.Seq < 1 || len(v.Entries) > 2*snapEvery {
			fail(fmt.Errorf("journal after %d sends: epoch %d, tail %d records (SnapshotEvery %d)",
				sends, v.Seq, len(v.Entries), snapEvery))
			return
		}
		rep.SnapshotBoundsTail = 1
	}

	// Failover: a follower that kept pace promotes in the time it takes
	// to fold the final tail — the window the router's health loop adds
	// to, not multiplies.
	{
		store := blob.NewStore(blob.Config{})
		cfg := queue.Config{
			Seed:       5,
			Durability: &queue.Durability{Store: store, Bucket: "j", Key: "ha"},
		}
		w := queue.NewService(cfg)
		if err := w.Recover(); err != nil {
			fail(err)
			return
		}
		w.CreateQueue("q")
		for i := 0; i < 500; i++ {
			w.SendMessage("q", []byte("m"))
		}
		f, err := queue.NewFollower(cfg)
		if err != nil {
			fail(err)
			return
		}
		if _, err := f.CatchUp(); err != nil {
			fail(err)
			return
		}
		for i := 0; i < 50; i++ {
			w.SendMessage("q", []byte("late")) // a short tail to fold at promotion
		}
		w.Halt()
		start := time.Now()
		promoted, err := f.Promote()
		if err != nil {
			fail(err)
			return
		}
		rep.PromoteNs = float64(time.Since(start).Nanoseconds())
		if vis, _, err := promoted.ApproximateCount("q"); err != nil || vis != 550 {
			fail(fmt.Errorf("promoted depth %d (err %v), want 550", vis, err))
			return
		}
	}

	fmt.Printf("contention (%d queues × %d workers):\n", rep.Queues, rep.Workers)
	fmt.Printf("  ephemeral: %10.0f cycles/s\n", rep.EphemeralCyclesPerSec)
	fmt.Printf("  durable:   %10.0f cycles/s   (journaling costs %.2fx)\n",
		rep.DurableCyclesPerSec, rep.JournalCostRatio)
	for _, p := range rep.Recovery {
		fmt.Printf("recover %5d msgs (%5d-record journal): %10.0f msgs/s\n",
			p.Messages, p.TailRecords, p.RecoverMsgsPerSec)
	}
	fmt.Printf("depth / delivery-count / snapshot invariants: %0.f / %.0f / %.0f\n",
		rep.DepthMatch, rep.ReceivesPreserved, rep.SnapshotBoundsTail)
	fmt.Printf("follower promotion (50-record tail): %10.0f ns\n", rep.PromoteNs)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_durable.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_durable.json")
}

// replanWhatIf is the deterministic paper-scale arm of BENCH_replan:
// the cap3 4096-file job planned for a 1-hour deadline, with the chosen
// type observed to run 3× slower than modeled while the rest of the
// catalog performs at spec. Every number is pure model arithmetic, so
// the fields gate on exact equality.
type replanWhatIf struct {
	StaticType  string `json:"static_type"`
	StaticFleet int    `json:"static_fleet"`
	ReplanType  string `json:"replanned_type"`
	ReplanFleet int    `json:"replanned_fleet"`
	// BaselineHourUnits is what the static fleet bills once the 3×
	// slowdown plays out; ReplanHourUnits is the calibrated selection's
	// bill; Saved is their difference — the number the re-planner earns.
	BaselineHourUnits float64 `json:"baseline_hour_units_exact"`
	ReplanHourUnits   float64 `json:"replanned_hour_units_exact"`
	HourUnitsSaved    float64 `json:"hour_units_saved_exact"`
	// The baseline misses the deadline it was planned for; the
	// re-planned fleet must make it.
	BaselineMeets float64 `json:"baseline_meets_target_exact"`
	ReplanMeets   float64 `json:"replanned_meets_target_exact"`
}

// replanBenchReport is the BENCH_replan.json schema: the calibration
// catalog + mid-job re-planning loop, measured live (a real broker job
// on a fleet 3× slower than modeled) and at paper scale (the what-if
// arithmetic above).
type replanBenchReport struct {
	Files int `json:"files"`
	// ReplanFired / ZeroLoss are the live loop's invariants: the broker
	// journaled exactly one replanned event, converged on the type that
	// is cheapest at observed speeds, and settled every task done.
	ReplanFired float64 `json:"replan_fired_exact"`
	ZeroLoss    float64 `json:"zero_loss_exact"`
	// TimeToDetectNs is submit → journaled replanned event: sample
	// accumulation (MinSamples × real task time over the fleet's lanes)
	// plus the hysteresis cooldown. Best of 2 runs.
	TimeToDetectNs float64 `json:"time_to_detect_ns"`
	// CatalogIngestPerSec is the catalog's journaled write path: observed
	// samples recorded per second in 32-sample settlement batches.
	CatalogIngestPerSec float64      `json:"catalog_ingest_per_sec"`
	WhatIf              replanWhatIf `json:"cap3_what_if"`
}

// replanBench measures the re-planning loop end to end and writes
// BENCH_replan.json. The live arm reuses the integration-test geometry:
// a synthetic app modeled at 100ms/task on a cheap 1 GHz type, really
// taking 300ms, with a 4 GHz type priced 5× higher waiting in the
// catalog — only the pricier type meets the deadline at observed
// speeds, so the broker must detect, re-plan, and retire the old fleet.
func replanBench() {
	slow := cloud.InstanceType{
		Name: "slow-cheap", Provider: cloud.AWS, MemoryGB: 4, Cores: 1,
		CostPerHour: 0.10, SixtyFourBit: true, ClockGHz: 1.0, MemBandwidthGBs: 10,
	}
	fast := cloud.InstanceType{
		Name: "fast-pricey", Provider: cloud.AWS, MemoryGB: 4, Cores: 1,
		CostPerHour: 0.50, SixtyFourBit: true, ClockGHz: 4.0, MemBandwidthGBs: 10,
	}
	benchCatalog := []cloud.InstanceType{slow, fast}
	model := perfmodel.AppModel{Name: "synth", WorkGHzSec: 0.1}
	const (
		nFiles       = 24
		realTaskTime = 300 * time.Millisecond
		maxFleet     = 3
	)
	rep := replanBenchReport{Files: nFiles}

	// Deadline between the two types' best calibrated makespans, as in
	// the integration test: static planning still picks slow-cheap.
	target := func() time.Duration {
		calApp := model
		calApp.WorkGHzSec *= realTaskTime.Seconds() / 0.1
		best := func(it cloud.InstanceType) time.Duration {
			var m time.Duration
			for n := 1; n <= maxFleet; n++ {
				out := perfmodel.Simulate(perfmodel.RunSpec{
					App: calApp, Framework: perfmodel.ClassicEC2,
					Instance: it, Instances: n, NFiles: nFiles,
				})
				if m == 0 || out.Makespan < m {
					m = out.Makespan
				}
			}
			return m
		}
		return (best(slow) + best(fast)) / 2
	}()

	liveRun := func() (detectNs float64, fired, zeroLoss bool, err error) {
		env := classiccloud.Env{
			Blob:  blob.NewStore(blob.Config{}),
			Queue: queue.NewService(queue.Config{Seed: 21}),
		}
		cal, err := catalog.Open(catalog.Config{Store: env.Blob, Prices: benchCatalog})
		if err != nil {
			return 0, false, false, err
		}
		bk := broker.New(broker.Config{
			Env: env,
			Registry: map[string]broker.ExecutorFactory{
				"synth": func(map[string][]byte) (classiccloud.Executor, error) {
					return classiccloud.FuncExecutor{
						AppName: "synth",
						Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
							time.Sleep(realTaskTime)
							return input, nil
						},
					}, nil
				},
			},
			PlanningModels:     map[string]perfmodel.AppModel{"synth": model},
			Catalog:            benchCatalog,
			DefaultInstance:    slow,
			WorkersPerInstance: 1,
			TickInterval:       5 * time.Millisecond,
			Autoscale:          broker.AutoscalePolicy{MinInstances: maxFleet, MaxInstances: maxFleet},
			Calibration:        cal,
			Replan: broker.ReplanPolicy{
				Enabled: true, MinSamples: 8, MinRelError: 0.5,
				Cooldown: 50 * time.Millisecond, MaxReplans: 1,
			},
		})
		defer bk.Close()
		files := make(map[string][]byte, nFiles)
		for i := 0; i < nFiles; i++ {
			files[fmt.Sprintf("f%02d.txt", i)] = []byte("x")
		}
		submitted := time.Now()
		j, err := bk.Submit(broker.JobRequest{App: "synth", Files: files, TargetMakespan: target})
		if err != nil {
			return 0, false, false, err
		}
		if err := j.Wait(60 * time.Second); err != nil {
			return 0, false, false, err
		}
		events, err := j.Journal()
		if err != nil {
			return 0, false, false, err
		}
		for _, ev := range events {
			if ev.Type == broker.EvReplanned {
				fired = true
				detectNs = float64(ev.Time.Sub(submitted).Nanoseconds())
			}
		}
		st := j.Status()
		zeroLoss = st.Done == nFiles && st.Dead == 0 && st.InstanceType == fast.Key()
		return detectNs, fired, zeroLoss, nil
	}
	// Best of 2: detection time is dominated by MinSamples real task
	// times, but one descheduled run must not poison the gate.
	for run := 0; run < 2; run++ {
		detect, fired, zeroLoss, err := liveRun()
		if err != nil {
			fail(err)
			return
		}
		if !fired || !zeroLoss {
			fail(fmt.Errorf("live re-plan run %d: fired=%v zeroLoss=%v", run, fired, zeroLoss))
			return
		}
		if rep.TimeToDetectNs == 0 || detect < rep.TimeToDetectNs {
			rep.TimeToDetectNs = detect
		}
	}
	rep.ReplanFired, rep.ZeroLoss = 1, 1

	// Catalog ingest rate: settlement-shaped 32-sample batches through
	// the write-ahead journal. Best of 2 over fresh stores.
	{
		const batches, perBatch = 2000, 32
		samples := make([]time.Duration, perBatch)
		for i := range samples {
			samples[i] = 100 * time.Millisecond
		}
		for run := 0; run < 2; run++ {
			cs, err := catalog.Open(catalog.Config{Store: blob.NewStore(blob.Config{}), Prices: benchCatalog})
			if err != nil {
				fail(err)
				return
			}
			start := time.Now()
			for i := 0; i < batches; i++ {
				if err := cs.Record("cap3", "aws/Large", samples); err != nil {
					fail(err)
					return
				}
			}
			if rate := float64(batches*perBatch) / time.Since(start).Seconds(); rate > rep.CatalogIngestPerSec {
				rep.CatalogIngestPerSec = rate
			}
		}
	}

	// Paper-scale what-if: cap3's 4096 files against the real price
	// catalogs, the statically chosen type observed 3× slower than
	// modeled, everything else at spec.
	{
		cat := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
		app := perfmodel.Cap3Model(458)
		const deadline = time.Hour
		static, ok := broker.PlanFleet(app, 4096, deadline, cat, 64)
		if !ok || !static.MeetsTarget {
			fail(fmt.Errorf("what-if: static plan failed (ok=%v meets=%v)", ok, static.MeetsTarget))
			return
		}
		observed := make(map[string]time.Duration, len(cat))
		for _, it := range cat {
			ratio := 1.0
			if it.Key() == static.InstanceType().Key() {
				ratio = 3.0
			}
			modeled := app.TaskTime(it, 1, 1, it.Provider == cloud.Azure)
			observed[it.Key()] = time.Duration(ratio * modeled * float64(time.Second))
		}
		calm := perfmodel.Calibrate(app, 1, observed, cat)
		replanned, ok := broker.PlanFleetCalibrated(calm, 4096, deadline, cat, 64)
		if !ok {
			fail(fmt.Errorf("what-if: calibrated plan found no candidate"))
			return
		}
		baseSpec := static.Spec
		baseSpec.App = calm.AppFor(static.InstanceType())
		baseOut := perfmodel.Simulate(baseSpec)
		rep.WhatIf = replanWhatIf{
			StaticType:        static.InstanceType().Key(),
			StaticFleet:       static.Instances(),
			ReplanType:        replanned.InstanceType().Key(),
			ReplanFleet:       replanned.Instances(),
			BaselineHourUnits: baseOut.Bill.HourUnits,
			ReplanHourUnits:   replanned.Outcome.Bill.HourUnits,
			HourUnitsSaved:    baseOut.Bill.HourUnits - replanned.Outcome.Bill.HourUnits,
		}
		if baseOut.Makespan <= deadline {
			rep.WhatIf.BaselineMeets = 1
		}
		if replanned.MeetsTarget {
			rep.WhatIf.ReplanMeets = 1
		}
	}

	fmt.Printf("live loop (%d files, %s/task on a fleet modeled at 100ms/task):\n", rep.Files, realTaskTime)
	fmt.Printf("  replanned %s → %s, zero loss; time to detect %8.0f ms\n",
		slow.Key(), fast.Key(), rep.TimeToDetectNs/1e6)
	fmt.Printf("catalog ingest: %12.0f samples/s (32-sample journaled batches)\n", rep.CatalogIngestPerSec)
	fmt.Printf("cap3 4096-file what-if (chosen type 3× slower than modeled):\n")
	fmt.Printf("  static  %-28s ×%2d  %6.0f hour units (meets deadline: %.0f)\n",
		rep.WhatIf.StaticType, rep.WhatIf.StaticFleet, rep.WhatIf.BaselineHourUnits, rep.WhatIf.BaselineMeets)
	fmt.Printf("  replan  %-28s ×%2d  %6.0f hour units (meets deadline: %.0f)\n",
		rep.WhatIf.ReplanType, rep.WhatIf.ReplanFleet, rep.WhatIf.ReplanHourUnits, rep.WhatIf.ReplanMeets)
	fmt.Printf("  hour units saved by re-planning: %.0f\n", rep.WhatIf.HourUnitsSaved)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile("BENCH_replan.json", append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to BENCH_replan.json")
}

// brokerLive runs a real (in-process) elastic job: 64 Cap3 files
// through the broker, printing the scaling timeline and the final
// elastic-versus-fixed bill.
func brokerLive() {
	files, err := workload.Cap3FileSet(11, 64, 40, 2000, 0)
	if err != nil {
		fail(err)
		return
	}
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 11}),
	}
	bk := broker.New(broker.Config{
		Env:               env,
		VisibilityTimeout: 500 * time.Millisecond,
		TickInterval:      5 * time.Millisecond,
		Autoscale: broker.AutoscalePolicy{
			MinInstances: 1, MaxInstances: 8, BacklogPerInstance: 12,
			ScaleDownCooldown: 30 * time.Millisecond,
		},
	})
	defer bk.Close()
	start := time.Now()
	j, err := bk.Submit(broker.JobRequest{App: "cap3", Files: files})
	if err != nil {
		fail(err)
		return
	}
	if err := j.Wait(60 * time.Second); err != nil {
		fail(err)
		return
	}
	fmt.Println("scaling timeline:")
	for _, ev := range j.Events() {
		fmt.Printf("  %8s  %-8s fleet=%d  (%s)\n",
			ev.Time.Sub(start).Round(time.Millisecond), ev.Action, ev.Fleet, ev.Reason)
	}
	st := j.Status()
	cr := j.CostReport()
	fmt.Printf("\n%d/%d tasks done in %s; throughput %.0f tasks/s; utilization %.0f%%\n",
		st.Done, st.Total, cr.Elapsed, float64(st.Done)/time.Since(start).Seconds(),
		100*cr.Utilization)
	fmt.Printf("%-24s %12s %12s\n", "", "hour units", "cost")
	fmt.Printf("%-24s %12.0f %11.2f$\n", "elastic fleet", cr.HourUnits, cr.ComputeCost)
	fmt.Printf("%-24s %12.0f %11.2f$\n", "fixed max fleet", cr.FixedHourUnits, cr.FixedComputeCost)
	fmt.Printf("savings vs fixed: %.0f%%\n",
		100*(1-cr.ComputeCost/cr.FixedComputeCost))
}
