package broker

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/workload"
)

// benchmarkSubmitHTTP times one POST /jobs from the caller's side:
// HTTPClient.Submit → an httptest server → HTTPHandler → Broker.Submit
// staging into an in-process queue and blob store. Each iteration gets a
// fresh broker and stores, built outside the timer, and its job's workers
// are held inside their first Execute so that nothing competes with the
// next submission.
func benchmarkSubmitHTTP(b *testing.B, files map[string][]byte) {
	var total int64
	for _, data := range files {
		total += int64(len(data))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		release := make(chan struct{})
		held := classiccloud.FuncExecutor{AppName: "held", Fn: func(classiccloud.Task, []byte) ([]byte, error) {
			<-release
			return nil, nil
		}}
		br := New(Config{
			Env:               testEnv(),
			VisibilityTimeout: time.Hour,
			Registry: map[string]ExecutorFactory{
				"held": func(map[string][]byte) (classiccloud.Executor, error) { return held, nil },
			},
		})
		srv := httptest.NewServer(&HTTPHandler{Broker: br})
		client := &HTTPClient{BaseURL: srv.URL}
		b.StartTimer()

		st, err := client.Submit(JobRequest{App: "held", Files: files})

		b.StopTimer()
		if err != nil || st.Total != len(files) {
			b.Fatalf("Submit = %+v, %v", st, err)
		}
		close(release)
		srv.Close()
		br.Close()
		b.StartTimer()
	}
}

// BenchmarkSubmitHTTPFat is bench/e2e's cap3_fat submission: 256 files of
// about 41 KB.
func BenchmarkSubmitHTTPFat(b *testing.B) {
	files, err := workload.Cap3FileSet(1, 256, 120, 6000, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkSubmitHTTP(b, files)
}

// BenchmarkSubmitHTTPTiny is tiny_durable's: 16 384 files of about 160 B,
// where the per-file cost of the body format shows instead of its bytes.
func BenchmarkSubmitHTTPTiny(b *testing.B) {
	files, err := workload.Cap3FileSet(1, 16384, 1, 120, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkSubmitHTTP(b, files)
}
