package main

import (
	"errors"
	"sort"
	"strings"
	"time"

	"repro/bench/harness"
	"repro/bench/workloads"
	"repro/internal/blob"
	"repro/internal/journal"
	"repro/internal/queue/wire"
)

// probeMaxRecords caps the journal probe at one snapshot epoch's worth.
const probeMaxRecords = 4096

// layerMetrics fills r.layers from what the interposers, the blob
// stores' registries and the broker's own reports recorded during one
// traced repetition. Snapshots: s0 before the submits, s1 after them,
// ws at the start of the timed section (== s0 unless the workload
// restarts), s2 when the last job was seen completed.
func layerMetrics(r *rep, spec workloads.Spec, stack *harness.Stack, tr *harness.Trace,
	jobs []*jobRun, s0, s1, ws, s2 snapshot, peakGoroutines int) {
	m := make(map[string]float64)
	tm := make(map[string]harness.Timing)
	r.layers, r.timings = m, tm
	tasks := float64(r.tasks)
	secs := time.Duration.Seconds
	from, to := tr.App.Since(ws.at), tr.App.Since(s2.at)
	subFrom, subTo := tr.App.Since(s0.at), tr.App.Since(s1.at)

	// app: executions, through the registry wrapper.
	appAll := tr.App.Spans()
	app := harness.Window(appAll, from, to)
	var execs []time.Duration
	for _, s := range app {
		execs = append(execs, s.Dur())
	}
	appExec := harness.Total(app)
	execT := harness.TimingOf(execs, time.Millisecond)
	tm["app.exec_ms"] = execT
	m["app.exec_s"] = secs(appExec)
	m["app.exec_ms_p50"], m["app.exec_ms_tail"] = execT.Median, execT.Tail
	m["app.executions"] = float64(len(app))
	if len(app) > 0 {
		m["app.useful_ratio"] = tasks / float64(len(app))
	}

	// wire ⊃ shard ⊃ queue: the same calls seen at three depths.
	wireAll := tr.Wire.Rec.Spans()
	a := harness.Window(wireAll, from, to)
	b := harness.Window(tr.Router.Rec.Spans(), from, to)
	var c []harness.Span
	perShard := make(map[string]int)
	var stale, redelivered int64
	for id, p := range tr.Shards {
		w := harness.Window(p.Rec.Spans(), from, to)
		c = append(c, w...)
		perShard[id] = len(w)
		stale += p.Stale.Load()
		redelivered += p.Redelivered.Load()
	}
	selfs := harness.SelfTimes([]harness.Nest{
		{Layer: "wire", ByOp: harness.SumByOp(a)},
		{Layer: "shard", ByOp: harness.SumByOp(b)},
		{Layer: "queue", ByOp: harness.SumByOp(c)},
	})
	wireSelf, shardSelf := harness.LayerSelf(selfs, "wire"), harness.LayerSelf(selfs, "shard")
	perCall := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(time.Microsecond)
	}
	m["wire.calls"], m["wire.self_s"] = float64(len(a)), secs(wireSelf)
	m["wire.self_us_per_call"] = perCall(wireSelf, len(a))
	var sends, hits []time.Duration
	unavailable := 0
	for _, s := range a {
		switch {
		case s.Op == harness.OpSend:
			sends = append(sends, s.Dur())
		case s.Op == harness.OpRecv && s.Msgs > 0:
			hits = append(hits, s.Dur())
		}
		if strings.Contains(s.Err, wire.ErrUnavailable.Error()) {
			unavailable++
		}
	}
	sendT, hitT := harness.TimingOf(sends, time.Microsecond), harness.TimingOf(hits, time.Microsecond)
	tm["wire.send_us"], tm["wire.recv_hit_us"] = sendT, hitT
	m["wire.send_p50_us"], m["wire.send_tail_us"] = sendT.Median, sendT.Tail
	m["wire.recv_hit_p50_us"], m["wire.recv_hit_tail_us"] = hitT.Median, hitT.Tail
	m["wire.unavailable"] = float64(unavailable)

	m["shard.calls"], m["shard.self_s"] = float64(len(b)), secs(shardSelf)
	m["shard.self_us_per_call"] = perCall(shardSelf, len(b))
	busiest := 0
	for _, n := range perShard {
		if n > 0 {
			m["shard.shards_touched"]++
		}
		if n > busiest {
			busiest = n
		}
	}
	if len(c) > 0 {
		m["shard.busiest_share"] = float64(busiest) / float64(len(c))
	}

	var longpoll time.Duration
	receives, empty, received := 0, 0, 0
	for _, s := range c {
		if s.Op != harness.OpRecv {
			continue
		}
		receives++
		received += s.Msgs
		if s.Msgs == 0 {
			empty++
			longpoll += s.Dur()
		}
	}
	// The journal store's write-side ops run inside queue calls (the
	// write-ahead append, the compaction put/CAS/delete); its reads are
	// the followers' and recovery's.
	journalWrites := busyDelta(ws.jrnBusy, s2.jrnBusy, "append", "put", "put_if", "delete")
	queueBusy := harness.Total(c) - longpoll
	queueSelf := queueBusy - journalWrites
	m["queue.calls"] = float64(len(c))
	m["queue.busy_s"], m["queue.self_s"] = secs(queueBusy), secs(queueSelf)
	m["queue.longpoll_wait_s"] = secs(longpoll)
	if receives > 0 {
		m["queue.empty_receive_ratio"] = float64(empty) / float64(receives)
	}
	if hitsN := receives - empty; hitsN > 0 {
		m["queue.msgs_per_receive"] = float64(received) / float64(hitsN)
	}
	m["queue.stale_receipts"], m["queue.redelivered"] = float64(stale), float64(redelivered)

	// journal and blob: usage deltas of the two stores, busy time from
	// their blob_op_ns histograms.
	jrn := usageDelta(ws.journal, s2.journal)
	job := usageDelta(s0.job, s2.job)
	m["journal.appends_per_task"] = float64(jrn.PutRequests) / tasks
	if jrn.PutRequests > 0 {
		m["journal.bytes_per_append"] = float64(jrn.BytesIn) / float64(jrn.PutRequests)
	}
	if sent := s2.sentBytes - ws.sentBytes; sent > 0 {
		m["journal.write_amp"] = float64(jrn.BytesIn) / float64(sent)
	}
	journalBusy := busyDelta(ws.jrnBusy, s2.jrnBusy, blobOps...)
	jobBusy := busyDelta(ws.jobBusy, s2.jobBusy, blobOps...)
	m["blob.job_requests_per_task"] = float64(job.Requests()) / tasks
	m["blob.job_busy_s"] = secs(busyDelta(s0.jobBusy, s2.jobBusy, blobOps...))
	m["blob.job_mb_in"], m["blob.job_mb_out"] = float64(job.BytesIn)/1e6, float64(job.BytesOut)/1e6
	m["blob.journal_busy_s"] = secs(journalBusy)
	m["blob.journal_mb_in"], m["blob.journal_mb_out"] = float64(jrn.BytesIn)/1e6, float64(jrn.BytesOut)/1e6
	m["blob.not_found_reads"] = float64(job.NotFoundReads + jrn.NotFoundReads)
	// Every compaction ends in exactly one CAS truncate of the live log.
	m["journal.snapshots"] = float64(s2.jrnOps["put_if"] - ws.jrnOps["put_if"])
	if stack.Stores.Journal != nil {
		journalProbe(stack.Stores.Journal, perShard, m, tm)
	}

	// broker: the control client's view plus the job's own reports.
	var submitSelf time.Duration
	var firstTask, finishLag []float64
	var util, idle float64
	for _, j := range jobs {
		submitSelf += j.submitEnd.Sub(j.submitStart)
		sf, st := tr.App.Since(j.submitStart), tr.App.Since(j.submitEnd)
		for _, s := range harness.Window(wireAll, sf, st) {
			if s.Trace == j.trace {
				submitSelf -= s.Dur()
			}
		}
		first, last := int64(-1), int64(-1)
		for _, s := range appAll {
			if jobOfBucket(s.Queue) != j.id {
				continue
			}
			if s.Start >= st && (first < 0 || s.Start < first) {
				first = s.Start
			}
			if s.End > last {
				last = s.End
			}
		}
		if first >= 0 {
			firstTask = append(firstTask, float64(first-st)/1e6)
			finishLag = append(finishLag, float64(tr.App.Since(j.doneAt)-last)/1e6)
		}
		m["broker.scale_events"] += float64(j.events)
		m["classiccloud.duplicates"] += float64(j.status.Duplicates)
		m["classiccloud.dead"] += float64(j.status.Dead)
		util += j.cost.Utilization / float64(len(jobs))
		if elapsed, err := time.ParseDuration(j.cost.Elapsed); err == nil {
			idle += float64(spec.WorkersPerInstance) * elapsed.Seconds() * (1 - j.cost.Utilization)
		}
	}
	m["broker.submit_s"] = secs(r.submit)
	// Blob time inside Submit belongs to blob, not to the broker.
	submitSelf -= busyDelta(s0.jobBusy, s1.jobBusy, blobOps...)
	m["broker.submit_self_s"] = secs(submitSelf)
	m["broker.first_task_ms"], m["broker.finish_lag_ms"] = harness.Median(firstTask), harness.Median(finishLag)
	m["broker.journal_events_per_task"] = float64(
		(s2.jobOps["append"]-s0.jobOps["append"])+(s2.jobOps["put_if"]-s0.jobOps["put_if"])) / tasks
	m["broker.recover_s"] = secs(r.recover)
	m["classiccloud.utilization"], m["classiccloud.idle_worker_s"] = util, idle

	// proc: allocator, collector and CPU split over the timed section.
	m["proc.alloc_kb_per_task"] = float64(s2.mem.TotalAlloc-ws.mem.TotalAlloc) / 1024 / tasks
	m["proc.mallocs_per_task"] = float64(s2.mem.Mallocs-ws.mem.Mallocs) / tasks
	m["proc.gc_pause_ms"] = float64(s2.mem.PauseTotalNs-ws.mem.PauseTotalNs) / 1e6
	m["proc.cpu_user_s"], m["proc.cpu_sys_s"] = secs(s2.cpuUser-ws.cpuUser), secs(s2.cpuSys-ws.cpuSys)
	m["proc.goroutines_peak"] = float64(peakGoroutines)

	// residual: the closed loop's worker-seconds minus every self time
	// above. Submit is serial in the caller and inside the window only
	// when the window starts at the first Submit.
	layerSelfs := map[string]time.Duration{
		"app": appExec, "wire": wireSelf, "shard": shardSelf, "queue": queueSelf,
		"blob.journal": journalBusy, "blob.job": jobBusy,
	}
	if subFrom >= from && subTo <= to {
		layerSelfs["broker"] = submitSelf
	}
	att := harness.Attribute(time.Duration(r.workers)*r.wall, layerSelfs)
	m["residual.worker_s"], m["residual.share"] = secs(att.Residual), att.Share()

	r.spans = append(r.spans, tr.Broker.Spans()...)
	r.spans = append(r.spans, appAll...)
	r.spans = append(r.spans, wireAll...)
	r.spans = append(r.spans, tr.Router.Rec.Spans()...)
	for _, p := range tr.Shards {
		r.spans = append(r.spans, p.Rec.Spans()...)
	}
	sort.Slice(r.spans, func(i, k int) bool { return r.spans[i].Start < r.spans[k].Start })
	m["trace.spans"] = float64(len(r.spans))
}

func usageDelta(a, b blob.Usage) blob.Usage {
	return blob.Usage{
		PutRequests: b.PutRequests - a.PutRequests, GetRequests: b.GetRequests - a.GetRequests,
		ListRequests: b.ListRequests - a.ListRequests, DeleteRequests: b.DeleteRequests - a.DeleteRequests,
		BytesIn: b.BytesIn - a.BytesIn, BytesOut: b.BytesOut - a.BytesOut,
		NotFoundReads: b.NotFoundReads - a.NotFoundReads,
	}
}

// journalProbe times journal.Log from outside on the record sizes the
// run actually produced: the busiest shard's journal is read back and
// its records re-appended, single-threaded, to a scratch store, then
// loaded. No histogram exists inside internal/journal yet, so this is a
// probe of the code path, not a measurement of the run's own appends.
func journalProbe(store *blob.Store, perShard map[string]int, m map[string]float64, tm map[string]harness.Timing) {
	busiest, most := "", -1
	for id, n := range perShard {
		if n > most {
			busiest, most = id, n
		}
	}
	view, err := harness.ShardLog(store, busiest).Load()
	if err != nil || len(view.Entries) == 0 {
		return
	}
	entries := view.Entries
	if len(entries) > probeMaxRecords {
		entries = entries[:probeMaxRecords]
	}
	scratch := blob.NewStore(blob.Config{})
	if err := scratch.CreateBucket("probe"); err != nil && !errors.Is(err, blob.ErrBucketExists) {
		return
	}
	log := journal.Log{Store: scratch, Bucket: "probe", Key: "log"}
	durs := make([]time.Duration, 0, len(entries))
	bytesIn := 0
	for _, e := range entries {
		start := time.Now()
		if err := log.Append(e); err != nil {
			return
		}
		durs = append(durs, time.Since(start))
		bytesIn += len(e) + 1
	}
	t := harness.TimingOf(durs, time.Microsecond)
	tm["journal.probe_append_us"] = t
	m["journal.probe_append_us_p50"], m["journal.probe_append_us_tail"] = t.Median, t.Tail
	start := time.Now()
	if _, err := log.Load(); err != nil {
		return
	}
	if d := time.Since(start); d > 0 {
		m["journal.probe_load_mb_per_s"] = float64(bytesIn) / 1e6 / d.Seconds()
	}
}
