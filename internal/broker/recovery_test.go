package broker

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fasta"
	"repro/internal/workload"
)

// blastSharedDB builds a small protein database as a blast job's shared
// data, returning it with the motifs its queries should hit.
func blastSharedDB(t *testing.T) (map[string][]byte, [][]byte) {
	t.Helper()
	db, motifs := workload.ProteinDatabase(3, 30, 80, 160, 4, 9)
	doc, err := fasta.MarshalRecords(db)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"nr.fsa": doc}, motifs
}

func blastQueries(t *testing.T, motifs [][]byte, n int) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		q, err := workload.BlastQueryFile(int64(10+i), 4, motifs, 60)
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("query-%02d.fsa", i)] = q
	}
	return files
}

// haltMidJob drives a job until some tasks have settled, then
// hard-stops the broker as a crash would.
func haltMidJob(t *testing.T, b *Broker, j *Job, atLeastDone int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Done < atLeastDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck before halt: %+v", j.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.Halt()
}

func TestBrokerRecoversHaltedJob(t *testing.T) {
	env := testEnv()
	cfg := Config{
		Env:               env,
		VisibilityTimeout: 400 * time.Millisecond,
		TickInterval:      5 * time.Millisecond,
		MaxReceives:       8,
		Autoscale: AutoscalePolicy{
			MinInstances: 1, MaxInstances: 2, BacklogPerInstance: 16,
			ScaleDownCooldown: time.Hour,
		},
	}
	b1 := New(cfg)
	const total = 40
	j1, err := b1.Submit(JobRequest{App: "cap3", Files: cap3Files(t, total)})
	if err != nil {
		t.Fatal(err)
	}
	haltMidJob(t, b1, j1, 5)
	preDone := j1.Status().Done
	if preDone >= total {
		t.Fatalf("job finished before halt (done=%d); nothing to recover", preDone)
	}

	// A fresh broker over the same environment replays the journal and
	// re-adopts the job: no resubmission, monitoring and billing resume.
	b2 := New(cfg)
	defer b2.Close()
	n, err := b2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d running jobs, want 1", n)
	}
	j2, ok := b2.Job(j1.ID)
	if !ok {
		t.Fatalf("job %s not adopted", j1.ID)
	}
	if err := j2.Wait(60 * time.Second); err != nil {
		t.Fatalf("recovered job did not complete: %v (status %+v)", err, j2.Status())
	}
	st := j2.Status()
	if st.Done != total || st.Dead != 0 {
		t.Errorf("done=%d dead=%d, want %d/0", st.Done, st.Dead, total)
	}
	if st.Adoptions != 1 {
		t.Errorf("adoptions = %d, want 1", st.Adoptions)
	}
	// Every output exists and parses — no task lost across the crash.
	outs, err := j2.CollectOutputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != total {
		t.Fatalf("collected %d outputs, want %d", len(outs), total)
	}
	for name, out := range outs {
		if _, err := fasta.ParseBytes(out); err != nil {
			t.Errorf("output %s is not FASTA: %v", name, err)
		}
	}
	// The ledger spans both processes: the dead broker's instances are
	// billed as orphans up to the adoption, the new ones from relaunch.
	cr := j2.CostReport()
	if cr.Orphaned < 1 {
		t.Errorf("orphaned = %d, want ≥ 1 (crash left instances running)", cr.Orphaned)
	}
	if cr.Launches < cr.Orphaned+1 {
		t.Errorf("launches = %d with %d orphans: recovery never relaunched", cr.Launches, cr.Orphaned)
	}
	if cr.HourUnits != float64(cr.Launches) {
		t.Errorf("HourUnits = %v, want %d (one unit per short-lived launch)", cr.HourUnits, cr.Launches)
	}
	// The journal on disk folds to exactly the completed state.
	evs, err := j2.Journal()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := foldJournal(j2.ID, nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCompleted || rec.Settled() != total {
		t.Errorf("journal folds to state=%s settled=%d, want completed/%d",
			rec.State, rec.Settled(), total)
	}
}

// A restarted broker that did NOT Recover cannot corrupt a dead
// broker's journal: its colliding job ID fails the exclusive journal
// create instead of appending a second submission onto the old history.
func TestSubmitRejectsJournalCollisionWithoutRecover(t *testing.T) {
	env := testEnv()
	cfg := Config{
		Env:               env,
		VisibilityTimeout: 400 * time.Millisecond,
		TickInterval:      5 * time.Millisecond,
		MaxReceives:       8,
		Autoscale:         AutoscalePolicy{MinInstances: 1, MaxInstances: 2},
	}
	b1 := New(cfg)
	j1, err := b1.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 60)})
	if err != nil {
		t.Fatal(err)
	}
	haltMidJob(t, b1, j1, 1)
	if done := j1.Status().Done; done >= 60 {
		t.Fatalf("job finished before halt (done=%d); nothing to recover", done)
	}

	// A fresh broker over the same env skips Recover and submits: its
	// first job ID collides with the journaled one.
	b2 := New(cfg)
	defer b2.Close()
	if _, err := b2.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 2)}); err == nil {
		t.Fatal("colliding submission accepted; old journal would be corrupted")
	}
	// The dead broker's journal is intact: a third broker recovers it.
	b3 := New(cfg)
	defer b3.Close()
	n, err := b3.Recover()
	if err != nil {
		t.Fatalf("Recover after collision attempt: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d, want 1", n)
	}
	j3, _ := b3.Job(j1.ID)
	if err := j3.Wait(60 * time.Second); err != nil {
		t.Fatalf("recovered job: %v (status %+v)", err, j3.Status())
	}
}

// Terminal jobs are re-registered read-only: status, cost, and outputs
// stay queryable after a restart, and Recover reports 0 running jobs.
func TestRecoverRegistersFinishedJobsReadOnly(t *testing.T) {
	env := testEnv()
	cfg := Config{
		Env:          env,
		TickInterval: 5 * time.Millisecond,
		Autoscale:    AutoscalePolicy{MinInstances: 1, MaxInstances: 2},
	}
	b1 := New(cfg)
	j1, err := b1.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	b1.Close()

	b2 := New(cfg)
	defer b2.Close()
	n, err := b2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("recovered %d running jobs, want 0", n)
	}
	j2, ok := b2.Job(j1.ID)
	if !ok {
		t.Fatal("finished job not registered after recovery")
	}
	st := j2.Status()
	if st.State != StateCompleted || st.Done != 6 || st.Fleet != 0 {
		t.Errorf("recovered status = %+v", st)
	}
	outs, err := j2.CollectOutputs()
	if err != nil || len(outs) != 6 {
		t.Errorf("outputs after recovery: %d (err %v), want 6", len(outs), err)
	}
	// Wait returns immediately: the job is already terminal.
	if err := j2.Wait(time.Second); err != nil {
		t.Errorf("Wait on recovered completed job: %v", err)
	}
	// A second Recover is a no-op (already registered).
	if n, err := b2.Recover(); err != nil || n != 0 {
		t.Errorf("second Recover = %d, %v", n, err)
	}
}

// A BLAST job's shared database is staged in the journal bucket at
// submission, so a recovering broker can rebuild the executor.
func TestRecoverRebuildsExecutorFromStagedShared(t *testing.T) {
	env := testEnv()
	// A slow-ish visibility so the halted instance's in-flight tasks
	// reappear quickly.
	cfg := Config{
		Env:               env,
		VisibilityTimeout: 400 * time.Millisecond,
		TickInterval:      5 * time.Millisecond,
		MaxReceives:       8,
		Autoscale:         AutoscalePolicy{MinInstances: 1, MaxInstances: 2},
	}
	db, motifs := blastSharedDB(t)
	files := blastQueries(t, motifs, 48)

	b1 := New(cfg)
	j1, err := b1.Submit(JobRequest{App: "blast", Files: files, Shared: db})
	if err != nil {
		t.Fatal(err)
	}
	haltMidJob(t, b1, j1, 1)
	if done := j1.Status().Done; done >= len(files) {
		t.Fatalf("job finished before halt (done=%d); nothing to recover", done)
	}

	b2 := New(cfg)
	defer b2.Close()
	n, err := b2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d, want 1", n)
	}
	j2, _ := b2.Job(j1.ID)
	if err := j2.Wait(60 * time.Second); err != nil {
		t.Fatalf("recovered blast job: %v (status %+v)", err, j2.Status())
	}
	if st := j2.Status(); st.Done != len(files) {
		t.Errorf("done = %d, want %d", st.Done, len(files))
	}
}
