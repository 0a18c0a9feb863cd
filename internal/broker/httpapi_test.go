package broker

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fasta"
	"repro/internal/gtm"
	"repro/internal/workload"
)

func testServer(t *testing.T) (*HTTPClient, *Broker) {
	t.Helper()
	b := New(Config{
		Env:               testEnv(),
		VisibilityTimeout: 500 * time.Millisecond,
		TickInterval:      5 * time.Millisecond,
		Autoscale: AutoscalePolicy{
			MinInstances: 1, MaxInstances: 3, BacklogPerInstance: 4,
			ScaleDownCooldown: 30 * time.Millisecond,
		},
	})
	srv := httptest.NewServer(&HTTPHandler{Broker: b})
	t.Cleanup(func() { srv.Close(); b.Close() })
	return &HTTPClient{BaseURL: srv.URL}, b
}

func TestHTTPUnknownJobIs404(t *testing.T) {
	client, _ := testServer(t)
	if _, err := client.Status("job-9999"); err != ErrNoSuchJob {
		t.Errorf("err = %v, want ErrNoSuchJob", err)
	}
}

func TestHTTPSubmitRejectsUnknownApp(t *testing.T) {
	client, _ := testServer(t)
	_, err := client.Submit(JobRequest{App: "nope", Files: map[string][]byte{"a": nil}})
	if err == nil {
		t.Fatal("no error for unknown app")
	}
}

func TestHTTPBlastJobWithSharedDatabase(t *testing.T) {
	client, _ := testServer(t)
	db, motifs := workload.ProteinDatabase(3, 30, 80, 160, 4, 9)
	dbDoc, err := fasta.MarshalRecords(db)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, 6)
	for i := 0; i < 6; i++ {
		q, err := workload.BlastQueryFile(int64(10+i), 4, motifs, 60)
		if err != nil {
			t.Fatal(err)
		}
		files[strings.ReplaceAll("query_N.fsa", "N", string(rune('a'+i)))] = q
	}
	st, err := client.Submit(JobRequest{
		App:    "blast",
		Files:  files,
		Shared: map[string][]byte{"nr.fsa": dbDoc},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitForCompletion(st.ID, 30*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Done != 6 || final.Dead != 0 {
		t.Fatalf("done=%d dead=%d, want 6/0", final.Done, final.Dead)
	}
	outs, err := client.Outputs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, out := range outs {
		// blast.Run emits one TSV hit line per alignment; motif-bearing
		// queries must align somewhere in the database.
		if strings.Contains(string(out), "\t") {
			reports++
		}
	}
	if reports != 6 {
		t.Errorf("%d outputs look like BLAST hit reports, want 6", reports)
	}
	if n, err := client.FleetSize(); err != nil || n != 0 {
		t.Errorf("fleet = %d (err %v) after completion, want 0", n, err)
	}
}

func TestHTTPGTMJobWithSharedModel(t *testing.T) {
	client, _ := testServer(t)
	// Train a tiny model, ship it as the job's shared data, and
	// interpolate two shards through the broker.
	dims := workload.PubChemDims
	data, _ := workload.ChemicalPointsLabeled(5, 60, 3)
	model, err := gtm.Train(data, dims, gtm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	modelBytes, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, 2)
	for i := 0; i < 2; i++ {
		pts := workload.ChemicalPoints(int64(20+i), 15, 3)
		shard, err := gtm.EncodeShard(pts, dims)
		if err != nil {
			t.Fatal(err)
		}
		files["shard"+string(rune('0'+i))+".bin"] = shard
	}
	st, err := client.Submit(JobRequest{
		App:    "gtm",
		Files:  files,
		Shared: map[string][]byte{"model.gtm": modelBytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitForCompletion(st.ID, 30*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Done != 2 {
		t.Fatalf("done = %d, want 2", final.Done)
	}
	outs, err := client.Outputs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range outs {
		coords, err := gtm.DecodeEmbedding(out)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(coords) != 15*2 {
			t.Errorf("%s: %d coords, want 30", name, len(coords))
		}
	}
}

func TestHTTPEventsAndCostEndpoints(t *testing.T) {
	client, _ := testServer(t)
	st, err := client.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForCompletion(st.ID, 30*time.Second, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	evs, err := client.Events(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Error("no scaling events")
	}
	cost, err := client.Cost(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cost.HourUnits < 1 || cost.InstanceType == "" {
		t.Errorf("degenerate cost report: %+v", cost)
	}
}

// TestHTTPSubmitPlansPastAHugeFleetCap: admission plans inside POST /jobs,
// before the 201, over every fleet up to the client's autoscale cap. A
// cap of 2^30 on a one-file job must plan what a small cap does, well
// inside a short client timeout.
func TestHTTPSubmitPlansPastAHugeFleetCap(t *testing.T) {
	client, _ := testServer(t)
	client.Client = &http.Client{Timeout: 5 * time.Second}
	submit := func(maxInstances int) Status {
		t.Helper()
		st, err := client.Submit(JobRequest{App: "cap3", Files: cap3Files(t, 1), TargetMakespan: time.Hour,
			Autoscale: &AutoscalePolicy{MinInstances: 1, MaxInstances: maxInstances}})
		if err != nil {
			t.Fatalf("cap %d: %v", maxInstances, err)
		}
		return st
	}
	small, huge := submit(4), submit(1<<30)
	if small.PlannedInstances == 0 || huge.InstanceType != small.InstanceType ||
		huge.PlannedInstances != small.PlannedInstances || huge.PlanMeetsTarget != small.PlanMeetsTarget {
		t.Fatalf("cap 2^30 planned %s x%d (meets %v), cap 4 %s x%d (meets %v)",
			huge.InstanceType, huge.PlannedInstances, huge.PlanMeetsTarget,
			small.InstanceType, small.PlannedInstances, small.PlanMeetsTarget)
	}
}
