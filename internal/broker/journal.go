package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/journal"
)

// The broker's durability model is the paper's own: all coordination
// state lives in cloud storage so any controller can die and be
// replaced. Every job lifecycle transition is an event appended to a
// per-job journal object in the blob store, and the in-memory job state
// is nothing but a fold over that journal — by construction, not by
// discipline: a Job keeps no copy of a journaled fact (policy, instance
// type, task set, settlements, ledger) outside its jobRecord, the live
// broker mutates that record only through jobRecord.apply, and a
// recovering brokerd runs the same apply over the same events.
// TestLiveJobEqualsJournalFold checks it after every step of scripted
// lifecycles, and that a job recovered from a Halt()ed broker answers
// Status and CostReport like the one that died. The one deliberate
// exception is retireLocked's best-effort journaling (see there).

// EventType names one job lifecycle transition.
type EventType string

// Journal event types.
const (
	// EvSubmitted opens a journal: the job's identity, tenant, task set,
	// policy, and instance type. Staging marks a submission whose inputs
	// and task messages are still being staged (Broker.Submit); a journal
	// written before staging was journaled carries no mark and folds as
	// staged.
	EvSubmitted EventType = "submitted"
	// EvStaged records that every input is stored and every task message
	// enqueued: Submit's last event before it answers. A running record
	// still staging is a submission the broker died in, which Recover
	// removes; a terminal record cannot be staged.
	EvStaged EventType = "staged"
	// EvPlanned records the cost-aware fleet plan when the submission
	// carried a target makespan.
	EvPlanned EventType = "planned"
	// EvScaledUp records one instance launch (one ledger entry opens).
	EvScaledUp EventType = "scaled_up"
	// EvScaledDown records one instance retirement (the ledger entry
	// closes; Preempted marks a spot reclaim).
	EvScaledDown EventType = "scaled_down"
	// EvCheckpoint records a batch of task settlements drained from the
	// monitor queue. It is appended BEFORE the reports are deleted, so a
	// crash between the two redelivers reports that the done-set fold
	// deduplicates — settlements are never lost and never double-counted.
	EvCheckpoint EventType = "checkpoint"
	// EvReplanned records a mid-job re-plan: the broker compared the
	// calibration catalog's observed service times against the plan's
	// modeled baseline, found a sustained shortfall, and re-ran
	// selection against the observed curves. The event carries the new
	// instance type and fleet shape, so recovery replays the switch and
	// the policy clamp that came with it.
	EvReplanned EventType = "replanned"
	// EvCompleted and EvAborted are terminal.
	EvCompleted EventType = "completed"
	EvAborted   EventType = "aborted"
	// EvAdopted records a broker restart re-adopting the job: every
	// ledger entry still open (instances of the dead process) is closed
	// at the adoption time as orphaned.
	EvAdopted EventType = "adopted"
)

// Event is one journal entry. A single flat struct keeps the wire format
// trivially greppable: unused fields are omitted per type.
type Event struct {
	Type EventType `json:"type"`
	Time time.Time `json:"time"`

	// EvSubmitted.
	App      string           `json:"app,omitempty"`
	Tenant   string           `json:"tenant,omitempty"`
	TaskIDs  []string         `json:"task_ids,omitempty"`
	Staging  bool             `json:"staging,omitempty"`
	Provider string           `json:"provider,omitempty"`
	Instance string           `json:"instance,omitempty"`
	Policy   *AutoscalePolicy `json:"policy,omitempty"`
	// TargetNS is the requested target makespan (EvSubmitted; zero when
	// the submission had none). Journaled so a recovered job can keep
	// re-planning against the original deadline.
	TargetNS int64 `json:"target_ns,omitempty"`

	// EvPlanned / EvReplanned.
	PlannedInstances int  `json:"planned_instances,omitempty"`
	PlanMeetsTarget  bool `json:"plan_meets_target,omitempty"`
	// PlanServiceNS is the planning model's expected per-task service
	// time on the planned type — the baseline the re-planner's
	// hysteresis guard compares observations against. A re-plan resets
	// it to the calibrated expectation on the new type, which is the
	// anti-flap: post-switch observations match the new baseline.
	PlanServiceNS int64 `json:"plan_service_ns,omitempty"`
	// PlanCap is the fleet cap the plan was searched under (the policy's
	// MaxInstances before the plan clamped it); re-planning searches the
	// same headroom instead of the clamped cap.
	PlanCap int `json:"plan_cap,omitempty"`
	// ObservedNS is the observed mean service time that triggered a
	// re-plan (EvReplanned only).
	ObservedNS int64 `json:"observed_ns,omitempty"`

	// EvScaledUp / EvScaledDown.
	InstanceID int  `json:"instance_id,omitempty"`
	Preempted  bool `json:"preempted,omitempty"`
	// LaunchFailed marks a scale-down that compensates a journaled
	// launch whose StartInstance failed: the entry never ran and is
	// excluded from the launch count.
	LaunchFailed bool   `json:"launch_failed,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Fleet        int    `json:"fleet,omitempty"`

	// EvCheckpoint.
	Done []string `json:"done,omitempty"`
	Dead []string `json:"dead,omitempty"`
}

// journalJobPrefix namespaces per-job journals inside the journal
// bucket; journalSharedPrefix holds the shared data staged at submission
// so a recovering broker can rebuild executors.
const (
	journalJobPrefix    = "jobs/"
	journalSharedPrefix = "shared/"
)

func journalKey(jobID string) string { return journalJobPrefix + jobID }

func sharedKey(jobID, name string) string {
	return journalSharedPrefix + jobID + "/" + name
}

// journalSnapshotEvery bounds replay: once this many events have been
// appended since the last snapshot — and they outweigh it, see
// maybeCompact — the folded jobRecord is snapshotted and the log
// truncated, so a long-running job's journal does not grow one
// checkpoint per drained monitor batch forever.
const journalSnapshotEvery = 64

// jobJournal is a job's durable event log: an internal/journal Log plus
// the compaction state and the broker-specific part of the format —
// Event encoding and the jobRecord snapshot.
type jobJournal struct {
	log journal.Log
	// appends and tailBytes count events and their bytes since the last
	// snapshot, snapBytes is that snapshot's size; all guarded by the
	// owning Job's mutex.
	appends   int
	tailBytes int
	snapBytes int
}

// write journals one event. The caller must not act on a state
// transition whose write failed: the journal is the source of truth.
// The opening EvSubmitted is an exclusive (compare-and-swap) create, so
// two broker processes can never interleave submissions under one job
// ID: a restarted broker that reuses an ID without having Recover()ed
// gets journal.ErrExists instead of corrupting the dead broker's log.
func (jl *jobJournal) write(ev Event) error {
	if jl == nil {
		return nil
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("broker: encoding journal event: %w", err)
	}
	if ev.Type == EvSubmitted {
		err = jl.log.Create(line)
	} else {
		err = jl.log.Append(line)
	}
	if errors.Is(err, journal.ErrExists) {
		return fmt.Errorf("broker: journal %s already exists (restarted without Recover?): %w", jl.log.Key, err)
	} else if err != nil {
		return fmt.Errorf("broker: journaling %s: %w", jl.log.Key, err)
	}
	jl.tailBytes += len(line)
	return nil
}

// maybeCompact snapshots the folded record and truncates the journal
// once journalSnapshotEvery events have accumulated AND their bytes have
// caught up with the previous snapshot's — the fix for journals that
// grew one checkpoint per drained monitor batch forever, without
// re-marshalling a record that holds every task of a large job every
// journalSnapshotEvery events. The snapshot grows with the job, so
// waiting for a tail as big as the last one makes the marshalling cost
// amortised O(1) per event byte (snapshot count grows with the log of
// the events, not linearly), while replay still reads at most one
// snapshot plus a tail of that snapshot's size plus journalSnapshotEvery
// events. Compaction is best-effort: a failure (returned for the caller
// to count) leaves the journal longer but complete, and the counters
// stay up so the next event retries. Caller holds the owning Job's
// mutex, so no append can race the truncation CAS.
func (jl *jobJournal) maybeCompact(rec *jobRecord) error {
	if jl == nil {
		return nil
	}
	jl.appends++
	if jl.appends < journalSnapshotEvery || jl.tailBytes < jl.snapBytes {
		return nil
	}
	state, err := json.Marshal(rec)
	if err == nil {
		err = jl.log.Snapshot(state)
	}
	if err != nil {
		return err
	}
	jl.appends, jl.tailBytes, jl.snapBytes = 0, 0, len(state)
	return nil
}

// readJournal loads one job's journal: the snapshot of its current
// epoch (nil until compaction has run) and the events appended since.
func readJournal(store *blob.Store, bucket, jobID string) (snapshot []byte, events []Event, err error) {
	v, err := (journal.Log{Store: store, Bucket: bucket, Key: journalKey(jobID)}).Load()
	if err != nil {
		return nil, nil, err
	}
	for i, line := range v.Entries {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, nil, fmt.Errorf("broker: journal event %d: %w", i+1, err)
		}
		events = append(events, ev)
	}
	return v.Snapshot, events, nil
}

// loadJobRecord rebuilds one job's full folded state from the blob
// store. Replay cost is bounded by the compaction cadence, not by job
// length.
func loadJobRecord(store *blob.Store, bucket, jobID string) (*jobRecord, error) {
	snapshot, events, err := readJournal(store, bucket, jobID)
	if err != nil {
		return nil, err
	}
	return foldJournal(jobID, snapshot, events)
}

// foldJournal replays a journal into a record: the epoch snapshot (when
// there is one) plus every event appended since.
func foldJournal(jobID string, snapshot []byte, events []Event) (*jobRecord, error) {
	rec := &jobRecord{}
	switch {
	case snapshot != nil:
		if err := json.Unmarshal(snapshot, rec); err != nil {
			return nil, fmt.Errorf("broker: decoding snapshot for %s: %w", jobID, err)
		}
	case len(events) == 0:
		return nil, fmt.Errorf("broker: empty journal for %s", jobID)
	case events[0].Type != EvSubmitted:
		return nil, fmt.Errorf("broker: journal for %s does not open with %s", jobID, EvSubmitted)
	}
	rec.ID = jobID
	for _, ev := range events {
		if err := rec.apply(ev); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// SyntheticJournal renders a completed-job journal document — one
// submitted event carrying nTasks task IDs, one checkpoint per task,
// one completed event — exactly as the broker would have journaled it:
// one internal/journal frame per JSON event. Replay benchmarks (the root
// bench suite, paperbench's brokerrecover experiment) build fixtures
// through it so the format is encoded in exactly one place.
func SyntheticJournal(nTasks int, base time.Time) ([]byte, error) {
	taskIDs := make([]string, nTasks)
	for i := range taskIDs {
		taskIDs[i] = fmt.Sprintf("t%04d", i)
	}
	events := make([]Event, 0, nTasks+2)
	events = append(events, Event{
		Type: EvSubmitted, Time: base, App: "cap3", Tenant: "bench",
		TaskIDs: taskIDs, Provider: "azure", Instance: "Small",
	})
	for i, id := range taskIDs {
		events = append(events, Event{
			Type: EvCheckpoint, Time: base.Add(time.Duration(i) * time.Second),
			Done: []string{id},
		})
	}
	events = append(events, Event{
		Type: EvCompleted, Time: base.Add(time.Duration(nTasks) * time.Second),
	})
	var doc []byte
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		doc = journal.AppendFrame(doc, line)
	}
	return doc, nil
}

// listJournaledJobs returns the job IDs with a journal in the bucket
// (snapshot objects are not journals and are excluded).
func listJournaledJobs(store *blob.Store, bucket string) ([]string, error) {
	keys, err := journal.List(store, bucket, journalJobPrefix)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(keys))
	for _, k := range keys {
		ids = append(ids, strings.TrimPrefix(k, journalJobPrefix))
	}
	sort.Strings(ids)
	return ids, nil
}

// ledgerEntry is one instance launch in the billing ledger: the fold of
// one EvScaledUp and (eventually) its EvScaledDown or the EvAdopted that
// orphaned it.
type ledgerEntry struct {
	ID        int
	Launched  time.Time
	Stopped   time.Time // zero while running
	Preempted bool
	// Provider and Instance record the type this instance launched as;
	// a mid-job re-plan leaves earlier entries on the old type, so the
	// ledger bills a mixed fleet exactly. Empty on entries journaled
	// before the fields existed — those bill at the job's current type.
	Provider string `json:",omitempty"`
	Instance string `json:",omitempty"`
	// Orphaned marks an instance that was still running when its broker
	// process died; it is billed to the adoption time.
	Orphaned bool
	// Failed marks a journaled launch whose StartInstance failed; the
	// instance never ran (zero lifetime, zero bill, not a launch).
	Failed bool
}

func (le *ledgerEntry) running() bool { return le.Stopped.IsZero() }

// jobRecord is the event-sourced core of a Job: the fold of its journal,
// and the only place a job's durable facts live. Everything in it is
// reconstructible from the journal alone, which is exactly what recovery
// does. Its JSON is the snapshot format.
type jobRecord struct {
	ID       string
	App      string
	Tenant   string
	TaskIDs  []string
	Policy   AutoscalePolicy
	Provider string
	Instance string

	PlannedInstances int
	PlanMeetsTarget  bool
	// TargetNS, PlanServiceNS, and PlanCap carry the re-planner's
	// durable inputs: the original deadline, the current expected
	// per-task service time, and the fleet headroom plans are searched
	// under. Replans counts re-plans; LastReplan starts the cooldown.
	TargetNS      int64
	PlanServiceNS int64
	PlanCap       int
	Replans       int
	LastReplan    time.Time

	State      JobState
	Started    time.Time
	FinishedAt time.Time
	// Staging is set from a staging EvSubmitted until EvStaged.
	Staging bool `json:",omitempty"`

	// Settlement holds the Done/Dead/Dups fold of the monitor reports.
	classiccloud.Settlement

	Ledger []*ledgerEntry
	Events []ScalingEvent

	LastUp    time.Time
	LastDown  time.Time
	Adoptions int
}

// apply folds one event into the record. It is the single transition
// function: the live broker and journal replay both go through it.
func (rec *jobRecord) apply(ev Event) error {
	switch ev.Type {
	case EvSubmitted:
		rec.App = ev.App
		rec.Tenant = ev.Tenant
		rec.TaskIDs = append([]string(nil), ev.TaskIDs...)
		if ev.Policy != nil {
			rec.Policy = *ev.Policy
		}
		rec.Provider, rec.Instance = ev.Provider, ev.Instance
		rec.TargetNS = ev.TargetNS
		rec.Staging = ev.Staging
		rec.State = StateRunning
		rec.Started = ev.Time
		rec.Settlement = classiccloud.NewSettlement()
	case EvPlanned:
		rec.foldPlan(ev)
		if ev.PlanCap > 0 {
			rec.PlanCap = ev.PlanCap
		}
	case EvReplanned:
		rec.foldPlan(ev)
		rec.Replans++
		rec.LastReplan = ev.Time
		rec.Events = append(rec.Events, ScalingEvent{
			Time: ev.Time, Action: "replan", Fleet: rec.fleetSize(), Reason: ev.Reason,
		})
	case EvScaledUp:
		rec.Ledger = append(rec.Ledger, &ledgerEntry{
			ID: ev.InstanceID, Launched: ev.Time,
			Provider: ev.Provider, Instance: ev.Instance,
		})
		rec.LastUp = ev.Time
		rec.Events = append(rec.Events, ScalingEvent{
			Time: ev.Time, Action: "launch", Delta: +1, Fleet: ev.Fleet, Reason: ev.Reason,
		})
	case EvScaledDown:
		le := rec.entry(ev.InstanceID)
		if le == nil {
			return fmt.Errorf("broker: journal scales down unknown instance %d", ev.InstanceID)
		}
		le.Stopped = ev.Time
		le.Preempted = ev.Preempted
		le.Failed = ev.LaunchFailed
		rec.LastDown = ev.Time
		action := "stop"
		if ev.Preempted {
			action = "preempt"
		}
		rec.Events = append(rec.Events, ScalingEvent{
			Time: ev.Time, Action: action, Delta: -1, Fleet: ev.Fleet, Reason: ev.Reason,
		})
	case EvStaged:
		if rec.State != StateRunning {
			return fmt.Errorf("broker: journal stages a %s job", rec.State)
		}
		rec.Staging = false
	case EvCheckpoint:
		rec.Settle(ev.Done, ev.Dead)
	case EvCompleted:
		rec.State = StateCompleted
		rec.FinishedAt = ev.Time
	case EvAborted:
		rec.State = StateAborted
		rec.FinishedAt = ev.Time
	case EvAdopted:
		rec.Adoptions++
		for _, le := range rec.Ledger {
			if le.running() {
				le.Stopped = ev.Time
				le.Orphaned = true
				rec.Events = append(rec.Events, ScalingEvent{
					Time: ev.Time, Action: "orphan", Delta: -1,
					Fleet: rec.fleetSize(), Reason: "broker restart orphaned instance",
				})
			}
		}
		// A fresh broker starts its cooldown clocks from the adoption.
		rec.LastUp, rec.LastDown = time.Time{}, time.Time{}
	default:
		return fmt.Errorf("broker: unknown journal event type %q", ev.Type)
	}
	return nil
}

func (rec *jobRecord) entry(id int) *ledgerEntry {
	for _, le := range rec.Ledger {
		if le.ID == id {
			return le
		}
	}
	return nil
}

func (rec *jobRecord) fleetSize() int {
	n := 0
	for _, le := range rec.Ledger {
		if le.running() {
			n++
		}
	}
	return n
}

// foldPlan folds a fleet plan (EvPlanned, EvReplanned): the chosen type, the
// planned size and verdict, the re-planner's hysteresis baseline — and
// the policy clamp: the plan meets the deadline with n instances, so the
// fleet is capped there and observed load fills it. The clamp is part of
// the fold so that a recovered job runs under the cap the plan set, not
// the one it was submitted with.
func (rec *jobRecord) foldPlan(ev Event) {
	if ev.Provider != "" {
		rec.Provider, rec.Instance = ev.Provider, ev.Instance
	}
	rec.PlannedInstances, rec.PlanMeetsTarget = ev.PlannedInstances, ev.PlanMeetsTarget
	if ev.PlanServiceNS > 0 {
		rec.PlanServiceNS = ev.PlanServiceNS
	}
	if n := ev.PlannedInstances; n > 0 {
		rec.Policy.MaxInstances = n
		rec.Policy.MinInstances = min(rec.Policy.MinInstances, n)
	}
}

// policy is the job's autoscale policy with defaults filled in (a
// journal written without one, like SyntheticJournal's, folds to zero).
func (rec *jobRecord) policy() AutoscalePolicy { return rec.Policy.withDefaults() }

// resolveInstanceType maps a journaled provider/name pair back to a
// catalog entry, falling back to def when the catalog no longer carries
// it (billing then uses the default's rates — stated, not silent).
func resolveInstanceType(provider, name string, catalog []cloud.InstanceType, def cloud.InstanceType) cloud.InstanceType {
	for _, it := range catalog {
		if string(it.Provider) == provider && it.Name == name {
			return it
		}
	}
	return def
}
