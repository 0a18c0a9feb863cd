package catalog

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/cloud"
)

func openTest(t *testing.T, store *blob.Store) *Service {
	t.Helper()
	s, err := Open(Config{
		Store:  store,
		Prices: append(cloud.EC2Catalog(), cloud.AzureCatalog()...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordAndStats(t *testing.T) {
	s := openTest(t, blob.NewStore(blob.Config{}))
	samples := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond,
	}
	if err := s.Record("cap3", "aws/Large", samples); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Stats("cap3", "aws/Large")
	if !ok {
		t.Fatal("no stats for recorded key")
	}
	if st.Count != 3 {
		t.Errorf("Count = %d, want 3", st.Count)
	}
	if got, want := st.Mean(), 200*time.Millisecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if st.P50NS <= 0 || st.P95NS < st.P50NS {
		t.Errorf("percentiles p50=%d p95=%d", st.P50NS, st.P95NS)
	}
	if st.CostPerHour != cloud.EC2Large.CostPerHour {
		t.Errorf("CostPerHour = %v, want the joined price %v", st.CostPerHour, cloud.EC2Large.CostPerHour)
	}
	if st.TasksPerUSD <= 0 {
		t.Error("TasksPerUSD not derived")
	}
	if _, ok := s.Stats("cap3", "aws/never-seen"); ok {
		t.Error("stats for an unobserved key")
	}
	// Non-positive samples are dropped, not recorded.
	if err := s.Record("cap3", "aws/Large", []time.Duration{0, -time.Second}); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats("cap3", "aws/Large")
	if st.Count != 3 {
		t.Errorf("Count = %d after non-positive batch, want 3", st.Count)
	}
}

func TestObservedMeansAppliesSampleFloor(t *testing.T) {
	s := openTest(t, blob.NewStore(blob.Config{}))
	many := make([]time.Duration, 20)
	for i := range many {
		many[i] = time.Second
	}
	_ = s.Record("cap3", "aws/Large", many)
	_ = s.Record("cap3", "azure/Small", []time.Duration{time.Second})
	means := s.ObservedMeans("cap3", 16)
	if len(means) != 1 {
		t.Fatalf("ObservedMeans = %v, want only the 20-sample key", means)
	}
	if means["aws/Large"] != time.Second {
		t.Errorf("mean = %v, want 1s", means["aws/Large"])
	}
}

func TestCatalogRecoversFromJournal(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := openTest(t, store)
	for i := 0; i < 5; i++ {
		if err := s.Record("blast", "azure/Small", []time.Duration{time.Duration(i+1) * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh service over the same store must replay the samples.
	re := openTest(t, store)
	st, ok := re.Stats("blast", "azure/Small")
	if !ok {
		t.Fatal("recovered catalog lost the key")
	}
	if st.Count != 5 {
		t.Errorf("recovered Count = %d, want 5", st.Count)
	}
	if got, want := st.Mean(), 3*time.Second; got != want {
		t.Errorf("recovered Mean = %v, want %v", got, want)
	}
}

func TestCatalogCompactionPreservesSummaries(t *testing.T) {
	const batches = 2*snapshotEvery + 11 // two snapshots and a tail
	store := blob.NewStore(blob.Config{})
	s := openTest(t, store)
	for i := 0; i < batches; i++ {
		if err := s.Record("gtm", "aws/Large", []time.Duration{time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := s.log.Load(); err != nil || v.Seq < 1 || len(v.Entries) >= snapshotEvery {
		t.Fatalf("journal after %d batches: %d records in the tail (%v), want it compacted", batches, len(v.Entries), err)
	}
	re := openTest(t, store)
	st, ok := re.Stats("gtm", "aws/Large")
	if !ok || st.Count != batches {
		t.Fatalf("after compaction: Count = %d (ok=%v), want %d", st.Count, ok, batches)
	}
	if got, want := st.Mean(), time.Second; got != want {
		t.Errorf("after compaction: Mean = %v, want %v", got, want)
	}
}

func TestReportOrdersByPricePerformance(t *testing.T) {
	s := openTest(t, blob.NewStore(blob.Config{}))
	// Same observed speed; Azure Small is 0.12/h vs EC2 Large 0.34/h, so
	// the Azure row must sort first on tasks-per-dollar.
	_ = s.Record("cap3", "aws/Large", []time.Duration{time.Second})
	_ = s.Record("cap3", "azure/Small", []time.Duration{time.Second})
	rep, ok := s.ReportFor("cap3")
	if !ok || len(rep.Rows) != 2 {
		t.Fatalf("ReportFor = %+v ok=%v", rep, ok)
	}
	if rep.Rows[0].InstanceType != "azure/Small" {
		t.Errorf("best row = %s, want azure/Small", rep.Rows[0].InstanceType)
	}
	all := s.Report()
	if len(all) != 1 || all[0].App != "cap3" {
		t.Errorf("Report() = %+v", all)
	}
}

func TestHTTPHandler(t *testing.T) {
	s := openTest(t, blob.NewStore(blob.Config{}))
	_ = s.Record("cap3", "aws/Large", []time.Duration{time.Second})
	h := &Handler{Service: s}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/catalog", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /catalog = %d", rr.Code)
	}
	var reports []AppReport
	if err := json.Unmarshal(rr.Body.Bytes(), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].App != "cap3" {
		t.Errorf("body = %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/catalog/cap3", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /catalog/cap3 = %d", rr.Code)
	}
	var rep AppReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].InstanceType != "aws/Large" {
		t.Errorf("body = %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/catalog/unknown", nil))
	if rr.Code != 404 {
		t.Errorf("GET /catalog/unknown = %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/catalog", nil))
	if rr.Code != 405 {
		t.Errorf("POST /catalog = %d, want 405", rr.Code)
	}
}
