// Package repro's benchmark harness: one bench per paper table and
// figure (regenerating its data through the performance model), plus
// end-to-end benches of the real applications on the real substrates and
// ablation benches of single design choices (speculation, visibility
// timeout, consistency window).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/blast"
	"repro/internal/broker"
	"repro/internal/cap3"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/gtm"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/perfmodel"
	"repro/internal/queue"
	"repro/internal/workload"

	blobstore "repro/internal/blob"
)

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(cloud.EC2Catalog()) != 4 {
			b.Fatal("catalog changed")
		}
	}
}

func BenchmarkTable2Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(cloud.AzureCatalog()) != 4 {
			b.Fatal("catalog changed")
		}
	}
}

func BenchmarkTable4CostComparison(b *testing.B) {
	var tbl perfmodel.Table4
	for i := 0; i < b.N; i++ {
		tbl = perfmodel.Table4CostComparison()
	}
	b.ReportMetric(tbl.EC2Total, "ec2_total_$")
	b.ReportMetric(tbl.AzureTotal, "azure_total_$")
	b.ReportMetric(tbl.ClusterCost[0.8], "cluster80_$")
}

// ---------------------------------------------------------------------------
// Cap3 figures
// ---------------------------------------------------------------------------

func BenchmarkFig3Cap3InstanceCost(b *testing.B) {
	var rows []perfmodel.InstanceStudyRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.Cap3InstanceStudy()
	}
	reportCheapest(b, rows)
}

func BenchmarkFig4Cap3InstanceTime(b *testing.B) {
	var rows []perfmodel.InstanceStudyRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.Cap3InstanceStudy()
	}
	reportFastest(b, rows)
}

func BenchmarkFig5Cap3Efficiency(b *testing.B) {
	var pts []perfmodel.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.Cap3Scalability()
	}
	reportMinEfficiency(b, pts)
}

func BenchmarkFig6Cap3PerCoreTime(b *testing.B) {
	var pts []perfmodel.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.Cap3Scalability()
	}
	b.ReportMetric(pts[len(pts)-1].PerFilePerCore.Seconds(), "perfile_s")
}

// ---------------------------------------------------------------------------
// BLAST figures
// ---------------------------------------------------------------------------

func BenchmarkFig7BlastInstanceCost(b *testing.B) {
	var rows []perfmodel.InstanceStudyRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.BlastInstanceStudy()
	}
	reportCheapest(b, rows)
}

func BenchmarkFig8BlastInstanceTime(b *testing.B) {
	var rows []perfmodel.InstanceStudyRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.BlastInstanceStudy()
	}
	reportFastest(b, rows)
}

func BenchmarkFig9BlastAzure(b *testing.B) {
	var rows []perfmodel.AzureBlastRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.BlastAzureStudy()
	}
	best := rows[0]
	for _, r := range rows {
		if r.Time < best.Time {
			best = r
		}
	}
	b.Logf("best Azure config: %s %dx%d (%v)", best.InstanceType, best.Workers, best.Threads, best.Time)
}

func BenchmarkFig10BlastEfficiency(b *testing.B) {
	var pts []perfmodel.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.BlastScalability()
	}
	reportMinEfficiency(b, pts)
}

func BenchmarkFig11BlastPerQueryFile(b *testing.B) {
	var pts []perfmodel.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.BlastScalability()
	}
	b.ReportMetric(pts[len(pts)-1].PerFilePerCore.Seconds(), "perfile_s")
}

// ---------------------------------------------------------------------------
// GTM figures
// ---------------------------------------------------------------------------

func BenchmarkFig12GTMInstanceCost(b *testing.B) {
	var rows []perfmodel.InstanceStudyRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.GTMInstanceStudy()
	}
	reportCheapest(b, rows)
}

func BenchmarkFig13GTMInstanceTime(b *testing.B) {
	var rows []perfmodel.InstanceStudyRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.GTMInstanceStudy()
	}
	reportFastest(b, rows)
}

func BenchmarkFig14GTMEfficiency(b *testing.B) {
	var pts []perfmodel.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.GTMScalability()
	}
	reportMinEfficiency(b, pts)
}

func BenchmarkFig15GTMPerCore(b *testing.B) {
	var pts []perfmodel.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.GTMScalability()
	}
	b.ReportMetric(pts[len(pts)-1].PerFilePerCore.Seconds(), "perfile_s")
}

// ---------------------------------------------------------------------------
// Section studies
// ---------------------------------------------------------------------------

func BenchmarkVariabilityStudy(b *testing.B) {
	var aws, azure float64
	for i := 0; i < b.N; i++ {
		aws, azure = perfmodel.VariabilityStudy()
	}
	b.ReportMetric(aws, "aws_cv_pct")
	b.ReportMetric(azure, "azure_cv_pct")
}

func BenchmarkInhomogeneousLoadBalance(b *testing.B) {
	var rows []perfmodel.InhomogeneousRow
	for i := 0; i < b.N; i++ {
		rows = perfmodel.InhomogeneousStudy()
	}
	b.ReportMetric(rows[len(rows)-1].Ratio, "dryad_over_hadoop")
}

// ---------------------------------------------------------------------------
// Real-application end-to-end benches (functional layer)
// ---------------------------------------------------------------------------

func BenchmarkRealCap3ClassicCloud(b *testing.B) {
	files, err := workload.Cap3FileSet(1, 4, 100, 8000, 0)
	if err != nil {
		b.Fatal(err)
	}
	app := apps.Cap3(cap3.Options{})
	runner := core.ClassicCloudRunner{Instances: 2, WorkersPerInstance: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(app, files, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealCap3Assembler(b *testing.B) {
	doc, err := workload.Cap3File(2, 200, 10000)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := fasta.ParseBytes(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cap3.Assemble(recs, cap3.Options{})
		if len(res.Contigs) == 0 {
			b.Fatal("no contigs")
		}
	}
}

func BenchmarkRealBlastMapReduce(b *testing.B) {
	dbRecs, motifs := workload.ProteinDatabase(3, 150, 200, 300, 4, 25)
	nr, err := fasta.MarshalRecords(dbRecs)
	if err != nil {
		b.Fatal(err)
	}
	files, err := workload.BlastQueryFileSet(4, 3, 20, motifs, 60)
	if err != nil {
		b.Fatal(err)
	}
	app, shared := apps.Blast(blast.Options{Threads: 1}), map[string][]byte{"nr.fsa": nr}
	runner := core.MapReduceRunner{Nodes: 3, SlotsPerNode: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(app, files, shared); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealGTMDryad(b *testing.B) {
	train := workload.ChemicalPoints(5, 300, 3)
	model, err := gtm.Train(train, workload.PubChemDims, gtm.Config{
		LatentGridSize: 8, BasisGridSize: 3, MaxIter: 10, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 4; i++ {
		pts := workload.ChemicalPoints(int64(10+i), 500, 3)
		enc, err := gtm.EncodeShard(pts, workload.PubChemDims)
		if err != nil {
			b.Fatal(err)
		}
		files[fmt.Sprintf("s%d", i)] = enc
	}
	blob, err := model.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	app, shared := apps.GTM(), map[string][]byte{"model": blob}
	runner := core.DryadRunner{Nodes: 2, SlotsPerNode: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(app, files, shared); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapReduceLocality measures the Hadoop scheduler's
// data-locality hit rate (8 nodes, 3 replicas: about 3/8 for a scheduler
// that ignored placement).
func BenchmarkMapReduceLocality(b *testing.B) {
	var locality float64
	for i := 0; i < b.N; i++ {
		nodes := make([]string, 8)
		for j := range nodes {
			nodes[j] = fmt.Sprintf("n%d", j)
		}
		fs := hdfs.NewFS(nodes)
		var inputs []string
		for j := 0; j < 64; j++ {
			p := fmt.Sprintf("/in/f%03d", j)
			if err := fs.Write(p, []byte("x"), ""); err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, p)
		}
		cluster := mapreduce.NewCluster(fs, 1)
		res, err := cluster.Run(mapreduce.JobConfig{
			Name: "loc", Input: inputs,
			Map: func(ctx *mapreduce.TaskContext, k string, v []byte, emit func(string, []byte)) error {
				time.Sleep(200 * time.Microsecond)
				emit(k, v)
				return nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		locality = res.Stats.LocalityFraction()
	}
	b.ReportMetric(locality, "locality_frac")
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkAblationSpeculation quantifies speculative execution against a
// deterministic straggler: one map attempt sleeps, the duplicate rescues
// the job.
func BenchmarkAblationSpeculation(b *testing.B) {
	for _, speculative := range []bool{false, true} {
		name := "off"
		if speculative {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nodes := []string{"n0", "n1", "n2", "n3"}
				fs := hdfs.NewFS(nodes)
				var inputs []string
				for j := 0; j < 8; j++ {
					p := fmt.Sprintf("/in/f%02d", j)
					if err := fs.Write(p, []byte("x"), ""); err != nil {
						b.Fatal(err)
					}
					inputs = append(inputs, p)
				}
				cluster := mapreduce.NewCluster(fs, 2)
				first := true
				_, err := cluster.Run(mapreduce.JobConfig{
					Name: "straggle", Input: inputs,
					Speculative: speculative,
					Map: func(ctx *mapreduce.TaskContext, k string, v []byte, emit func(string, []byte)) error {
						if k == "f00" && first && ctx.Attempt == 1 {
							first = false
							time.Sleep(100 * time.Millisecond) // twice the speculation threshold
						}
						emit(k, v)
						return nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVisibilityTimeout measures duplicate work induced by
// shrinking the task lease below the task duration.
func BenchmarkAblationVisibilityTimeout(b *testing.B) {
	for _, vis := range []time.Duration{20 * time.Millisecond, 500 * time.Millisecond} {
		b.Run(vis.String(), func(b *testing.B) {
			var duplicates int64
			for i := 0; i < b.N; i++ {
				env := classiccloud.Env{
					Blob:  blobstore.NewStore(blobstore.Config{}),
					Queue: queue.NewService(queue.Config{Seed: 3}),
				}
				cfg := classiccloud.Config{JobName: fmt.Sprintf("vis%d-%d", vis, i), VisibilityTimeout: vis}
				client := classiccloud.NewClient(env, cfg)
				if err := client.Setup(); err != nil {
					b.Fatal(err)
				}
				files := map[string][]byte{}
				for j := 0; j < 8; j++ {
					files[fmt.Sprintf("f%d", j)] = []byte("x")
				}
				tasks, err := client.SubmitFiles(files)
				if err != nil {
					b.Fatal(err)
				}
				exec := classiccloud.FuncExecutor{AppName: "slow", Fn: func(t classiccloud.Task, in []byte) ([]byte, error) {
					time.Sleep(30 * time.Millisecond) // longer than the short lease
					return in, nil
				}}
				inst, err := classiccloud.StartInstance(env, cfg, exec, 4)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := client.WaitForCompletion(tasks, 30*time.Second)
				inst.Stop()
				if err != nil {
					b.Fatal(err)
				}
				duplicates += int64(rep.Duplicates) + inst.Stats().StaleDeletes.Load()
			}
			b.ReportMetric(float64(duplicates)/float64(b.N), "dup_work_per_job")
		})
	}
}

// BenchmarkAblationConsistencyWindow measures download retries induced by
// eventual consistency windows of different lengths (both inside a
// worker's 16 ms retry budget).
func BenchmarkAblationConsistencyWindow(b *testing.B) {
	for _, window := range []time.Duration{0, 10 * time.Millisecond} {
		b.Run(fmt.Sprintf("window=%v", window), func(b *testing.B) {
			var retries int64
			for i := 0; i < b.N; i++ {
				env := classiccloud.Env{
					Blob:  blobstore.NewStore(blobstore.Config{ConsistencyWindow: window}),
					Queue: queue.NewService(queue.Config{Seed: 4}),
				}
				cfg := classiccloud.Config{JobName: fmt.Sprintf("cw%d-%d", window, i)}
				client := classiccloud.NewClient(env, cfg)
				if err := client.Setup(); err != nil {
					b.Fatal(err)
				}
				files := map[string][]byte{}
				for j := 0; j < 6; j++ {
					files[fmt.Sprintf("f%d", j)] = []byte("x")
				}
				tasks, err := client.SubmitFiles(files)
				if err != nil {
					b.Fatal(err)
				}
				exec := classiccloud.FuncExecutor{AppName: "id", Fn: func(t classiccloud.Task, in []byte) ([]byte, error) {
					return in, nil
				}}
				inst, err := classiccloud.StartInstance(env, cfg, exec, 2)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := client.WaitForCompletion(tasks, 30*time.Second); err != nil {
					b.Fatal(err)
				}
				retries += inst.Stats().DownloadRetrys.Load()
				inst.Stop()
			}
			b.ReportMetric(float64(retries)/float64(b.N), "retries_per_job")
		})
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func reportCheapest(b *testing.B, rows []perfmodel.InstanceStudyRow) {
	b.Helper()
	best := rows[0]
	for _, r := range rows {
		if r.ComputeCost < best.ComputeCost {
			best = r
		}
	}
	b.Logf("cheapest: %s ($%.2f)", best.Label, best.ComputeCost)
}

func reportFastest(b *testing.B, rows []perfmodel.InstanceStudyRow) {
	b.Helper()
	best := rows[0]
	for _, r := range rows {
		if r.ComputeTime < best.ComputeTime {
			best = r
		}
	}
	b.Logf("fastest: %s (%v)", best.Label, best.ComputeTime)
	b.ReportMetric(best.ComputeTime.Seconds(), "fastest_s")
}

func reportMinEfficiency(b *testing.B, pts []perfmodel.ScalabilityPoint) {
	b.Helper()
	min := 1.0
	for _, p := range pts {
		if p.Efficiency < min {
			min = p.Efficiency
		}
	}
	b.ReportMetric(min, "min_efficiency")
}

// ---------------------------------------------------------------------------
// Elastic broker
// ---------------------------------------------------------------------------

// BenchmarkBrokerElasticCap3 runs a full elastic job — submit, autoscale
// up, drain, autoscale down — and reports task throughput plus the
// hour-unit bill against the fixed max-fleet baseline.
func BenchmarkBrokerElasticCap3(b *testing.B) {
	files, err := workload.Cap3FileSet(3, 48, 40, 2000, 0)
	if err != nil {
		b.Fatal(err)
	}
	var lastCost broker.CostReport
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := classiccloud.Env{
			Blob:  blobstore.NewStore(blobstore.Config{}),
			Queue: queue.NewService(queue.Config{Seed: int64(i + 1)}),
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
		j, err := bk.Submit(broker.JobRequest{App: "cap3", Files: files})
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(60 * time.Second); err != nil {
			b.Fatal(err)
		}
		st := j.Status()
		if st.Done != len(files) {
			b.Fatalf("done = %d, want %d", st.Done, len(files))
		}
		lastCost = j.CostReport()
		d, _ := time.ParseDuration(lastCost.Elapsed)
		elapsed = d
		bk.Close()
	}
	if elapsed > 0 {
		b.ReportMetric(float64(len(files))/elapsed.Seconds(), "tasks/s")
	}
	b.ReportMetric(lastCost.HourUnits, "hour_units")
	b.ReportMetric(lastCost.FixedHourUnits, "fixed_hour_units")
	b.ReportMetric(lastCost.Utilization, "utilization")
}

// BenchmarkBrokerInstanceSelection measures the cost-aware planning
// sweep across the EC2 catalog.
func BenchmarkBrokerInstanceSelection(b *testing.B) {
	app := perfmodel.Cap3Model(458)
	catalog := cloud.EC2Catalog()
	static := perfmodel.Calibrate(app, 1, nil, catalog)
	var sel perfmodel.Selection
	for i := 0; i < b.N; i++ {
		sel, _ = static.Plan(512, time.Hour, catalog, 16)
	}
	if !sel.MeetsTarget {
		b.Fatal("no selection meets target")
	}
	b.ReportMetric(sel.Outcome.Bill.ComputeCost, "selected_cost_$")
	b.ReportMetric(float64(sel.Instances()), "selected_instances")
}

// BenchmarkBrokerJournalReplay measures crash recovery: a fresh broker
// folding completed-job journals out of the blob store (the startup
// path of brokerd -recover). Journals are written in the same
// JSON-lines wire format GET /jobs/{id}/journal serves.
func BenchmarkBrokerJournalReplay(b *testing.B) {
	const jobs, tasksPerJob = 16, 64
	env := classiccloud.Env{
		Blob:  blobstore.NewStore(blobstore.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 1}),
	}
	if err := env.Blob.CreateBucket("broker-journal"); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < jobs; k++ {
		doc, err := broker.SyntheticJournal(tasksPerJob, time.Unix(1_000_000, 0))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Blob.Append("broker-journal", fmt.Sprintf("jobs/job-%04d", k+1), doc); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk := broker.New(broker.Config{Env: env})
		n, err := bk.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if n != 0 {
			b.Fatalf("recovered %d running jobs from terminal journals", n)
		}
		if got := len(bk.Jobs()); got != jobs {
			b.Fatalf("registered %d jobs, want %d", got, jobs)
		}
		bk.Close()
	}
	b.ReportMetric(float64(jobs*(tasksPerJob+2)), "events/op")
}

// BenchmarkAutoscalerDecide measures the pure policy function on a hot
// path observation.
func BenchmarkAutoscalerDecide(b *testing.B) {
	p := broker.AutoscalePolicy{
		MinInstances: 1, MaxInstances: 32, BacklogPerInstance: 16,
		TargetDrain: 30 * time.Second, ScaleDownCooldown: 10 * time.Second,
	}
	o := broker.Observation{
		Now: time.Unix(1000, 0), Visible: 512, InFlight: 64, Fleet: 8,
		ThroughputPerInstance: 1.5,
	}
	for i := 0; i < b.N; i++ {
		if d := p.Decide(o); d.Delta == 0 && d.Reason == "" {
			b.Fatal("empty decision")
		}
	}
}
