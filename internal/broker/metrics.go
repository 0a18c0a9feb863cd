package broker

import (
	"sync"

	"repro/internal/classiccloud"
	"repro/internal/telemetry"
)

// errorSites are the places the control plane drops an error instead of
// returning it (Job.swallowed); each is a broker_errors_total{site}
// series.
var errorSites = []string{
	"monitor_receive", "checkpoint", "monitor_delete",
	"calibration_record", "scale_down_journal", "compaction",
}

// errorMetric names the counter of errors swallowed at one site.
func errorMetric(site string) string {
	return telemetry.Label("broker_errors_total", "site", site)
}

// brokerMetrics holds the broker's instruments. All methods are safe on
// a nil receiver, so an uninstrumented broker (Config.Metrics == nil)
// pays nothing on its hot paths.
type brokerMetrics struct {
	// taskService is the per-task service-time histogram. The durations
	// are measured AT THE WORKER (wall clock around the executor, shipped
	// in the monitor report), so the histogram reflects compute time, not
	// queue latency or broker drain lag.
	taskService *telemetry.Histogram
	tasksDone   *telemetry.Counter
	tasksDead   *telemetry.Counter
	// counters holds every counter inc bumps, by a short key: scale_up,
	// scale_down, preempt, decision_<verdict>, error_<site>. They are
	// registered up front, so bumping one takes no registry mutex and is
	// safe under a job lock (which a concurrent render's gauge funcs also
	// take).
	counters map[string]*telemetry.Counter

	reg *telemetry.Registry
	mu  sync.Mutex
	// byType caches the instance_type-labeled variants of taskService,
	// one per reporting type seen.
	byType map[string]*telemetry.Histogram
}

// newBrokerMetrics registers the broker's instruments on reg, including
// gauge functions over live broker state (fleet size, running jobs).
// Returns nil when reg is nil.
func newBrokerMetrics(b *Broker, reg *telemetry.Registry) *brokerMetrics {
	if reg == nil {
		return nil
	}
	m := &brokerMetrics{
		taskService: reg.Histogram("broker_task_service_ns"),
		tasksDone:   reg.Counter("broker_tasks_done"),
		tasksDead:   reg.Counter("broker_tasks_dead"),
		counters: map[string]*telemetry.Counter{
			"scale_up":   reg.Counter("broker_scale_ups"),
			"scale_down": reg.Counter("broker_scale_downs"),
			"preempt":    reg.Counter("broker_preemptions"),
		},
		reg:    reg,
		byType: make(map[string]*telemetry.Histogram),
	}
	for _, verdict := range []string{"up", "down", "hold"} {
		m.counters["decision_"+verdict] = reg.Counter(telemetry.Label("broker_autoscale_decisions", "verdict", verdict))
	}
	for _, site := range errorSites {
		m.counters["error_"+site] = reg.Counter(errorMetric(site))
	}
	reg.GaugeFunc("broker_fleet", func() int64 { return int64(b.FleetSize()) })
	reg.GaugeFunc("broker_jobs_running", b.runningJobs)
	return m
}

// inc bumps one of the pre-registered counters.
func (m *brokerMetrics) inc(key string) {
	if m != nil {
		m.counters[key].Inc()
	}
}

// settled records one checkpointed settlement batch: done/dead counts
// plus the worker-reported service times of the newly done tasks, each
// observed into the unlabeled histogram and (when the report carried a
// type) its instance_type-labeled variant. Called only after the
// checkpoint is journaled, so a failed checkpoint (whose reports
// redeliver) is never double-observed.
func (m *brokerMetrics) settled(done, dead int, samples []classiccloud.MonitorReport) {
	if m == nil {
		return
	}
	m.tasksDone.Add(int64(done))
	m.tasksDead.Add(int64(dead))
	for _, s := range samples {
		m.taskService.Observe(s.ServiceTime)
		if s.InstanceType != "" {
			m.serviceHist(s.InstanceType).Observe(s.ServiceTime)
		}
	}
}

// serviceHist returns (caching it) the labeled per-type service-time
// histogram for one instance type key.
func (m *brokerMetrics) serviceHist(itype string) *telemetry.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.byType[itype]
	if h == nil {
		h = m.reg.Histogram(telemetry.Label("broker_task_service_ns", "instance_type", itype))
		m.byType[itype] = h
	}
	return h
}

// runningJobs counts jobs currently in StateRunning (gauge-func source).
func (b *Broker) runningJobs() int64 {
	var n int64
	for _, j := range b.Jobs() {
		j.mu.Lock()
		if j.core.State == StateRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}
