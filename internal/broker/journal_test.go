package broker

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/journal"
)

func ts(sec int) time.Time { return time.Unix(9000+int64(sec), 0) }

func submittedEvent() Event {
	p := testPolicy().withDefaults()
	return Event{
		Type: EvSubmitted, Time: ts(0),
		App: "cap3", Tenant: "alice", TaskIDs: []string{"a", "b", "c"},
		Provider: "azure", Instance: "Small", Policy: &p,
	}
}

func TestFoldJournalBasicLifecycle(t *testing.T) {
	events := []Event{
		submittedEvent(),
		{Type: EvScaledUp, Time: ts(1), InstanceID: 0, Fleet: 1, Reason: "initial fleet"},
		{Type: EvScaledUp, Time: ts(2), InstanceID: 1, Fleet: 2, Reason: "backlog"},
		{Type: EvCheckpoint, Time: ts(3), Done: []string{"a", "b"}},
		{Type: EvScaledDown, Time: ts(4), InstanceID: 1, Fleet: 1, Reason: "idle"},
		{Type: EvCheckpoint, Time: ts(5), Done: []string{"c"}},
		{Type: EvScaledDown, Time: ts(6), InstanceID: 0, Fleet: 0, Reason: "job complete"},
		{Type: EvCompleted, Time: ts(6)},
	}
	rec, err := foldJournal("job-0001", nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCompleted {
		t.Errorf("state = %s", rec.State)
	}
	if rec.App != "cap3" || rec.Tenant != "alice" || len(rec.TaskIDs) != 3 {
		t.Errorf("identity not folded: %+v", rec)
	}
	if len(rec.Done) != 3 || rec.Settled() != 3 || rec.Dups != 0 {
		t.Errorf("done=%d settled=%d dups=%d", len(rec.Done), rec.Settled(), rec.Dups)
	}
	if rec.fleetSize() != 0 || len(rec.Ledger) != 2 {
		t.Errorf("fleet=%d ledger=%d", rec.fleetSize(), len(rec.Ledger))
	}
	// The ledger carries exact lifetimes for billing.
	if got := rec.Ledger[1].Stopped.Sub(rec.Ledger[1].Launched); got != 2*time.Second {
		t.Errorf("instance 1 lifetime = %v, want 2s", got)
	}
	if len(rec.Events) != 4 {
		t.Errorf("scaling events = %d, want 4", len(rec.Events))
	}
	if rec.Started != ts(0) || rec.FinishedAt != ts(6) {
		t.Errorf("started=%v finished=%v", rec.Started, rec.FinishedAt)
	}
}

// Checkpoints fold idempotently: a report replayed after a crash (the
// journal-before-delete window) increments the duplicate counter but
// never double-counts a settlement.
func TestFoldCheckpointDeduplicates(t *testing.T) {
	events := []Event{
		submittedEvent(),
		{Type: EvCheckpoint, Time: ts(1), Done: []string{"a", "b"}},
		{Type: EvCheckpoint, Time: ts(2), Done: []string{"b"}, Dead: []string{"c"}},
		{Type: EvCheckpoint, Time: ts(3), Dead: []string{"c"}},
	}
	rec, err := foldJournal("job-0001", nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Done) != 2 || rec.Dups != 1 {
		t.Errorf("done=%d dups=%d, want 2/1", len(rec.Done), rec.Dups)
	}
	if rec.DeadOnly() != 1 || rec.Settled() != 3 {
		t.Errorf("deadOnly=%d settled=%d, want 1/3", rec.DeadOnly(), rec.Settled())
	}
}

// A task that was both dead-lettered and completed counts as done:
// completion wins, so settled() sums to the task total.
func TestFoldDeadThenDoneCountsOnce(t *testing.T) {
	events := []Event{
		submittedEvent(),
		{Type: EvCheckpoint, Time: ts(1), Dead: []string{"a"}},
		{Type: EvCheckpoint, Time: ts(2), Done: []string{"a"}},
	}
	rec, err := foldJournal("job-0001", nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DeadOnly() != 0 || rec.Settled() != 1 {
		t.Errorf("deadOnly=%d settled=%d, want 0/1", rec.DeadOnly(), rec.Settled())
	}
}

// EvAdopted orphans every instance still running in the ledger, billing
// it up to the adoption time, and resets the cooldown clocks.
func TestFoldAdoptionOrphansOpenLedgerEntries(t *testing.T) {
	events := []Event{
		submittedEvent(),
		{Type: EvScaledUp, Time: ts(1), InstanceID: 0, Fleet: 1, Reason: "initial fleet"},
		{Type: EvScaledUp, Time: ts(2), InstanceID: 1, Fleet: 2, Reason: "backlog"},
		{Type: EvScaledDown, Time: ts(3), InstanceID: 1, Fleet: 1, Reason: "idle"},
		{Type: EvAdopted, Time: ts(10)},
	}
	rec, err := foldJournal("job-0001", nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning || rec.Adoptions != 1 {
		t.Errorf("state=%s adoptions=%d", rec.State, rec.Adoptions)
	}
	if rec.fleetSize() != 0 {
		t.Errorf("fleet = %d after adoption, want 0 (old process's instances are gone)", rec.fleetSize())
	}
	le := rec.entry(0)
	if !le.Orphaned || le.Stopped != ts(10) {
		t.Errorf("instance 0 = %+v, want orphaned at adoption time", le)
	}
	if clean := rec.entry(1); clean.Orphaned {
		t.Error("cleanly stopped instance marked orphaned")
	}
	if !rec.LastUp.IsZero() || !rec.LastDown.IsZero() {
		t.Error("cooldown clocks not reset by adoption")
	}
}

func TestFoldJournalRejectsCorruption(t *testing.T) {
	if _, err := foldJournal("j", nil, nil); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := foldJournal("j", nil, []Event{{Type: EvCompleted, Time: ts(0)}}); err == nil {
		t.Error("journal not opening with submitted accepted")
	}
	if _, err := foldJournal("j", nil, []Event{submittedEvent(), {Type: "martian", Time: ts(1)}}); err == nil {
		t.Error("unknown event type accepted")
	}
	if _, err := foldJournal("j", nil, []Event{submittedEvent(),
		{Type: EvScaledDown, Time: ts(1), InstanceID: 7}}); err == nil {
		t.Error("scale-down of unknown instance accepted")
	}
}

// Round trip through the blob store: append events, read them back,
// fold — the exact path recovery takes.
func TestJournalBlobRoundTrip(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	if err := store.CreateBucket("broker-journal"); err != nil {
		t.Fatal(err)
	}
	jl := &jobJournal{log: journal.Log{Store: store, Bucket: "broker-journal", Key: journalKey("job-0042")}}
	events := []Event{
		submittedEvent(),
		{Type: EvScaledUp, Time: ts(1), InstanceID: 0, Fleet: 1, Reason: "initial fleet"},
		{Type: EvCheckpoint, Time: ts(2), Done: []string{"a"}},
	}
	for _, ev := range events {
		if err := jl.write(ev); err != nil {
			t.Fatal(err)
		}
	}
	_, got, err := readJournal(store, "broker-journal", "job-0042")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Type != events[i].Type {
			t.Errorf("event %d type = %s, want %s", i, got[i].Type, events[i].Type)
		}
	}
	ids, err := listJournaledJobs(store, "broker-journal")
	if err != nil || len(ids) != 1 || ids[0] != "job-0042" {
		t.Errorf("listJournaledJobs = %v (err %v)", ids, err)
	}
	readBack := func(doc []byte) error {
		if err := store.Put("broker-journal", journalKey("job-0043"), doc); err != nil {
			t.Fatal(err)
		}
		_, _, err := readJournal(store, "broker-journal", "job-0043")
		return err
	}
	if err := readBack(journal.AppendFrame(nil, []byte("{not json"))); err == nil ||
		!strings.Contains(err.Error(), "journal event 1") {
		t.Errorf("corrupt event error = %v", err)
	}
	if err := readBack([]byte("{\"type\":\"submitted\"}\n")); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("JSON-lines journal error = %v, want journal.ErrCorrupt", err)
	}
}

// journalDriver drives a jobJournal exactly as recordLocked does —
// journal, fold, tick compaction — and counts the snapshots taken.
type journalDriver struct {
	t         *testing.T
	jl        *jobJournal
	live      *jobRecord
	snapshots int
	// maxEvent is the largest event journaled since the first snapshot.
	maxEvent int
}

func (d *journalDriver) record(ev Event) {
	d.t.Helper()
	tailBefore := d.jl.tailBytes
	if err := d.jl.write(ev); err != nil {
		d.t.Fatal(err)
	}
	if err := d.live.apply(ev); err != nil {
		d.t.Fatal(err)
	}
	if d.snapshots > 0 {
		d.maxEvent = max(d.maxEvent, d.jl.tailBytes-tailBefore)
	}
	// maybeCompact counts this event, so appends is zero only when it
	// has just snapshotted.
	if err := d.jl.maybeCompact(d.live); err != nil {
		d.t.Fatal(err)
	} else if d.jl.appends == 0 {
		d.snapshots++
	}
}

// runJob journals a whole job of nTasks one-task checkpoints.
func (d *journalDriver) runJob(nTasks int) {
	taskIDs := make([]string, nTasks)
	for i := range taskIDs {
		taskIDs[i] = ts(i).Format("t150405.000")
	}
	sub := submittedEvent()
	sub.TaskIDs = taskIDs
	d.record(sub)
	d.record(Event{Type: EvScaledUp, Time: ts(1), InstanceID: 0, Fleet: 1, Reason: "initial fleet"})
	for i, id := range taskIDs {
		d.record(Event{Type: EvCheckpoint, Time: ts(2 + i), Done: []string{id}})
	}
	d.record(Event{Type: EvScaledDown, Time: ts(2 + nTasks), InstanceID: 0, Reason: "drained"})
	d.record(Event{Type: EvCompleted, Time: ts(3 + nTasks)})
}

func newJournalDriver(t *testing.T, snapEvery int) *journalDriver {
	store := blob.NewStore(blob.Config{})
	if err := store.CreateBucket("broker-journal"); err != nil {
		t.Fatal(err)
	}
	return &journalDriver{
		t:    t,
		live: &jobRecord{ID: "job-0042"},
		jl: &jobJournal{
			log:       journal.Log{Store: store, Bucket: "broker-journal", Key: journalKey("job-0042")},
			snapEvery: snapEvery,
		},
	}
}

// Compaction: once snapEvery events accumulate and outweigh the last
// snapshot, the journal is truncated to a snapshot of the folded
// record; the replay tail stays bounded by that snapshot's size plus
// snapEvery events no matter how many checkpoints a long job writes,
// and the recovery fold over snapshot + tail matches a fold over the
// full history.
func TestJournalCompactionBoundsReplay(t *testing.T) {
	const snapEvery, nTasks = 8, 100
	d := newJournalDriver(t, snapEvery)
	d.runJob(nTasks)
	jl, live, store := d.jl, d.live, d.jl.log.Store

	v, err := jl.log.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshot == nil {
		t.Fatal("no snapshot after 100+ events")
	}
	tail := 0
	for _, e := range v.Entries {
		tail += len(e)
	}
	if bound := len(v.Snapshot) + snapEvery*d.maxEvent; tail > bound {
		t.Errorf("replay tail holds %d bytes in %d events, want <= snapshot (%d bytes) + %d events — compaction is not bounding replay",
			tail, len(v.Entries), len(v.Snapshot), snapEvery)
	}
	if d.snapshots < 2 {
		t.Errorf("%d snapshots over %d events, want the journal compacted repeatedly", d.snapshots, nTasks+4)
	}

	rec, err := loadJobRecord(store, "broker-journal", "job-0042")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCompleted || len(rec.Done) != nTasks || rec.ID != "job-0042" {
		t.Errorf("recovered fold: state=%s done=%d", rec.State, len(rec.Done))
	}
	if rec.fleetSize() != 0 || len(rec.Ledger) != 1 {
		t.Errorf("recovered ledger: fleet=%d entries=%d", rec.fleetSize(), len(rec.Ledger))
	}
	if len(rec.Events) != len(live.Events) {
		t.Errorf("scaling events: recovered %d, live %d", len(rec.Events), len(live.Events))
	}
}

// The folded record holds every task of the job, so snapshotting it
// every snapEvery events costs O(tasks) per snapshot and O(tasks²) per
// job. Waiting for the tail to outweigh the last snapshot makes the
// count grow with the logarithm of the events: eight times the tasks
// buys a handful more snapshots, not eight times as many.
func TestJournalCompactionCountIsLogarithmic(t *testing.T) {
	const snapEvery = 64
	count := func(nTasks int) int {
		d := newJournalDriver(t, snapEvery)
		d.runJob(nTasks)
		if rec, err := loadJobRecord(d.jl.log.Store, "broker-journal", "job-0042"); err != nil ||
			rec.State != StateCompleted || len(rec.Done) != nTasks {
			t.Fatalf("%d tasks: recovered fold lost state (err %v)", nTasks, err)
		}
		return d.snapshots
	}
	small, large := count(512), count(4096)
	events := 4096 + 4
	if limit := 2 * int(math.Log2(float64(events))); large < 1 || large > limit {
		t.Errorf("%d snapshots over %d events, want between 1 and 2·log2(events) = %d (every %d events would be %d)",
			large, events, limit, snapEvery, events/snapEvery)
	}
	if large > small+6 {
		t.Errorf("snapshots grew %d -> %d for 8x the events: linear, not logarithmic", small, large)
	}
	t.Logf("snapshots: %d over 516 events, %d over %d", small, large, events)
}
