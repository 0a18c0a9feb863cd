// Package catalog is the calibration catalog: a durable record of
// observed per-task service times keyed by (app, instance type), built
// from the worker-measured service_ns samples the broker's settlement
// path drains. It is the AccelBench-style "benchmark catalog as a
// product" of the roadmap — pre-computed price-performance per instance
// type, continuously refreshed from live jobs, exported side by side —
// and the data source the broker's mid-job re-planner and perfmodel's
// CalibratedModel overlay consume.
//
// Durability follows the repo's journal discipline: every recorded
// sample batch is appended write-ahead to a journal object in the blob
// store before it is folded into the in-memory summaries, and the
// summaries (count, sum, power-of-two latency buckets — enough to
// reproduce mean/p50/p95 exactly) are periodically compacted into the
// journal's snapshot so replay stays bounded. Open() recovers the full
// catalog from snapshot + tail.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/cloud"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// The catalog's journal object, and how many journaled batches it takes
// before the summaries are snapshotted and the journal truncated.
const (
	journalBucket = "calibration"
	journalKey    = "observations"
	snapshotEvery = 256
)

// Config configures the catalog service.
type Config struct {
	// Store is the blob store holding the catalog journal (required).
	Store *blob.Store
	// Prices joins hourly rates into the side-by-side export; entries
	// are matched by cloud.InstanceType.Key(). Empty leaves the
	// price-performance columns zero.
	Prices []cloud.InstanceType
}

// Service is the calibration catalog.
type Service struct {
	cfg Config
	log journal.Log

	mu      sync.Mutex
	entries map[string]*entry // key: app + "|" + instance type
	appends int
}

// entry accumulates one (app, instance type) key's samples. The
// histogram carries count, sum, and the bucket counts that reproduce
// the percentiles; it is also the unit of snapshot persistence.
type entry struct {
	app  string
	it   string
	hist *telemetry.Histogram
}

// batchRecord is one journaled ingestion batch.
type batchRecord struct {
	App string  `json:"app"`
	IT  string  `json:"it"`
	NS  []int64 `json:"ns"`
}

// snapEntry is one entry's persisted summary state.
type snapEntry struct {
	App     string  `json:"app"`
	IT      string  `json:"it"`
	SumNS   int64   `json:"sum_ns"`
	Buckets []int64 `json:"buckets"`
}

// snapState is the journal snapshot document.
type snapState struct {
	Entries []snapEntry `json:"entries"`
}

// Open creates (idempotently) the catalog bucket and recovers the
// catalog from its journal: snapshot first, then a fold of the tail.
func Open(cfg Config) (*Service, error) {
	if cfg.Store == nil {
		return nil, errors.New("catalog: Config.Store is required")
	}
	if err := cfg.Store.CreateBucket(journalBucket); err != nil && !errors.Is(err, blob.ErrBucketExists) {
		return nil, fmt.Errorf("catalog: creating bucket: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		log:     journal.Log{Store: cfg.Store, Bucket: journalBucket, Key: journalKey},
		entries: make(map[string]*entry),
	}
	v, err := s.log.Load()
	if err != nil {
		if errors.Is(err, blob.ErrNoSuchKey) {
			return s, nil // fresh catalog, nothing recorded yet
		}
		return nil, fmt.Errorf("catalog: loading journal: %w", err)
	}
	if v.Snapshot != nil {
		var st snapState
		if err := json.Unmarshal(v.Snapshot, &st); err != nil {
			return nil, fmt.Errorf("catalog: decoding snapshot: %w", err)
		}
		for _, se := range st.Entries {
			s.get(se.App, se.IT).hist.Merge(se.SumNS, se.Buckets)
		}
	}
	for i, line := range v.Entries {
		var rec batchRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("catalog: journal record %d: %w", i+1, err)
		}
		s.fold(rec)
	}
	return s, nil
}

func entryKey(app, it string) string { return app + "|" + it }

// get returns (creating if needed) the entry for a key. Caller holds
// s.mu (or is the still-single-threaded Open).
func (s *Service) get(app, it string) *entry {
	k := entryKey(app, it)
	e := s.entries[k]
	if e == nil {
		e = &entry{app: app, it: it, hist: telemetry.NewHistogram()}
		s.entries[k] = e
	}
	return e
}

func (s *Service) fold(rec batchRecord) {
	e := s.get(rec.App, rec.IT)
	for _, ns := range rec.NS {
		e.hist.Observe(time.Duration(ns))
	}
}

// Record ingests one batch of observed per-task service times for an
// (app, instance type) key. The batch is journaled write-ahead: a batch
// whose append fails is not folded and the error surfaces to the caller
// (the broker ingests best-effort and simply drops the batch — the
// catalog is advisory, losing samples only delays calibration).
func (s *Service) Record(app, instanceType string, samples []time.Duration) error {
	if app == "" || instanceType == "" || len(samples) == 0 {
		return nil
	}
	rec := batchRecord{App: app, IT: instanceType, NS: make([]int64, 0, len(samples))}
	for _, d := range samples {
		if d > 0 {
			rec.NS = append(rec.NS, int64(d))
		}
	}
	if len(rec.NS) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.AppendJSON(rec); err != nil {
		return err
	}
	s.fold(rec)
	s.maybeCompactLocked()
	return nil
}

// maybeCompactLocked snapshots the summaries and truncates the journal
// once snapshotEvery batches have accumulated. Best-effort, like the
// broker's job-journal compaction: a failure leaves the journal longer
// but complete, and the counter stays up so the next batch retries.
func (s *Service) maybeCompactLocked() {
	s.appends++
	if s.appends < snapshotEvery {
		return
	}
	st := snapState{Entries: make([]snapEntry, 0, len(s.entries))}
	for _, e := range s.entries {
		st.Entries = append(st.Entries, snapEntry{
			App: e.app, IT: e.it,
			SumNS:   int64(e.hist.Sum()),
			Buckets: e.hist.BucketCounts(),
		})
	}
	sort.Slice(st.Entries, func(a, b int) bool {
		if st.Entries[a].App != st.Entries[b].App {
			return st.Entries[a].App < st.Entries[b].App
		}
		return st.Entries[a].IT < st.Entries[b].IT
	})
	state, err := json.Marshal(st)
	if err != nil {
		return
	}
	if err := s.log.Snapshot(state); err != nil {
		return
	}
	s.appends = 0
}

// Stats is one (app, instance type) key's observed summary, with
// price-performance columns joined from the configured price catalog.
type Stats struct {
	App          string `json:"app"`
	InstanceType string `json:"instance_type"`
	Count        int64  `json:"count"`
	MeanNS       int64  `json:"mean_ns"`
	P50NS        int64  `json:"p50_ns"`
	P95NS        int64  `json:"p95_ns"`
	// CostPerHour is the instance type's hourly price (zero when the
	// type is not in the configured price catalog).
	CostPerHour float64 `json:"cost_per_hour,omitempty"`
	// TasksPerHour is one worker lane's observed throughput
	// (3600 / mean); TasksPerUSD divides it by the hourly price. Both
	// are per-lane figures — the ordering, which is what a side-by-side
	// comparison needs, is unaffected by the lane count.
	TasksPerHour float64 `json:"tasks_per_hour,omitempty"`
	TasksPerUSD  float64 `json:"tasks_per_usd,omitempty"`
}

// Mean returns the observed mean service time.
func (st Stats) Mean() time.Duration { return time.Duration(st.MeanNS) }

func (s *Service) statsLocked(e *entry) Stats {
	snap := e.hist.Snapshot()
	st := Stats{
		App:          e.app,
		InstanceType: e.it,
		Count:        snap.Count,
		P50NS:        snap.P50NS,
		P95NS:        snap.P95NS,
	}
	if snap.Count > 0 {
		st.MeanNS = snap.SumNS / snap.Count
	}
	for _, it := range s.cfg.Prices {
		if it.Key() == e.it {
			st.CostPerHour = it.CostPerHour
			break
		}
	}
	if st.MeanNS > 0 {
		st.TasksPerHour = float64(time.Hour) / float64(st.MeanNS)
		if st.CostPerHour > 0 {
			st.TasksPerUSD = st.TasksPerHour / st.CostPerHour
		}
	}
	return st
}

// Stats returns the summary for one (app, instance type) key.
func (s *Service) Stats(app, instanceType string) (Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryKey(app, instanceType)]
	if !ok {
		return Stats{}, false
	}
	return s.statsLocked(e), true
}

// ObservedMeans returns the observed mean service time per instance
// type for one app, restricted to keys with at least minSamples
// samples — the map perfmodel.Calibrate consumes.
func (s *Service) ObservedMeans(app string, minSamples int) map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, e := range s.entries {
		if e.app != app {
			continue
		}
		st := s.statsLocked(e)
		if st.Count >= int64(minSamples) && st.MeanNS > 0 {
			out[e.it] = st.Mean()
		}
	}
	return out
}

// AppReport is one app's side-by-side instance-type comparison, best
// price-performance first.
type AppReport struct {
	App  string  `json:"app"`
	Rows []Stats `json:"rows"`
}

// Report exports every app's comparison, apps sorted by name.
func (s *Service) Report() []AppReport {
	s.mu.Lock()
	byApp := make(map[string][]Stats)
	for _, e := range s.entries {
		byApp[e.app] = append(byApp[e.app], s.statsLocked(e))
	}
	s.mu.Unlock()
	apps := make([]string, 0, len(byApp))
	for app := range byApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	out := make([]AppReport, 0, len(apps))
	for _, app := range apps {
		out = append(out, AppReport{App: app, Rows: sortRows(byApp[app])})
	}
	return out
}

// ReportFor exports one app's comparison.
func (s *Service) ReportFor(app string) (AppReport, bool) {
	s.mu.Lock()
	var rows []Stats
	for _, e := range s.entries {
		if e.app == app {
			rows = append(rows, s.statsLocked(e))
		}
	}
	s.mu.Unlock()
	if len(rows) == 0 {
		return AppReport{}, false
	}
	return AppReport{App: app, Rows: sortRows(rows)}, true
}

// sortRows orders a comparison: best observed price-performance first,
// unpriced rows after (by throughput), name as the final tiebreak.
func sortRows(rows []Stats) []Stats {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].TasksPerUSD != rows[b].TasksPerUSD {
			return rows[a].TasksPerUSD > rows[b].TasksPerUSD
		}
		if rows[a].TasksPerHour != rows[b].TasksPerHour {
			return rows[a].TasksPerHour > rows[b].TasksPerHour
		}
		return rows[a].InstanceType < rows[b].InstanceType
	})
	return rows
}
