package classiccloud

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
	"repro/internal/queue/wire"
)

// BenchmarkTinyTaskJob runs one whole job of 4096 tiny tasks per op:
// SubmitFiles, one instance of 2 workers and WaitForCompletion, with
// every queue call crossing wire.Client → wire.Server → a durable
// queue.Service over loopback TCP. The executor echoes its input, so
// what the profile shows is the task path's envelope: message bodies,
// monitor reports, the wire server's handlers and the queue's ids. It
// also reports the job's billed queue requests per task, read from the
// service's counter from the first submission until the instance has
// stopped, and the job store's billed blob requests per task over the
// same span: staging, the workers' reads and writes, and the completion
// check's reads of the output objects. On Linux it reports the write
// syscalls the process made over the same span per billed queue request
// (writes/req): a request costs one write each way when every frame is
// flushed alone, and less when the wire's writers share their writes.
func BenchmarkTinyTaskJob(b *testing.B) {
	const n = 4096
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("file%05d.fsa", i)] = []byte(">read\nACGT\n")
	}
	echo := FuncExecutor{AppName: "echo", Fn: func(_ Task, in []byte) ([]byte, error) { return in, nil }}
	var elapsed time.Duration
	var requests, blobRequests, writes int64
	_, countWrites := writeSyscalls()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		journals := blob.NewStore(blob.Config{})
		svc := queue.NewService(queue.Config{Seed: 1,
			Durability: &queue.Durability{Store: journals, Bucket: "queue-journal", Key: "shard-0"}})
		if err := svc.Recover(); err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := &wire.Server{Service: svc}
		go srv.Serve(ln)
		remote := wire.Dial(ln.Addr().String(), wire.Options{})
		store := blob.NewStore(blob.Config{})
		env := Env{Blob: store, Queue: remote}
		cfg := Config{JobName: "tiny"}
		client := NewClient(env, cfg)
		if err := client.Setup(); err != nil {
			b.Fatal(err)
		}
		start, billed, blobBilled := time.Now(), svc.APIRequests(), store.Usage().Requests()
		written, _ := writeSyscalls()
		b.StartTimer()
		tasks, err := client.SubmitFiles(files)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := StartInstance(env, cfg, echo, 2)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := client.WaitForCompletion(tasks, time.Minute)
		inst.Stop()
		b.StopTimer()
		elapsed += time.Since(start)
		nowWritten, _ := writeSyscalls()
		writes += nowWritten - written
		requests += svc.APIRequests() - billed
		blobRequests += store.Usage().Requests() - blobBilled
		if err != nil || rep.Completed != n {
			b.Fatalf("completed %d/%d tasks: %v", rep.Completed, n, err)
		}
		remote.Close()
		srv.Close()
		svc.Halt()
	}
	b.ReportMetric(float64(b.N*n)/elapsed.Seconds(), "tasks/s")
	b.ReportMetric(float64(requests)/float64(b.N*n), "queue-req/task")
	b.ReportMetric(float64(blobRequests)/float64(b.N*n), "blob_req/task")
	if countWrites {
		b.ReportMetric(float64(writes)/float64(requests), "writes/req")
	}
}

// writeSyscalls reads the write syscalls this process has made so far
// (syscw in /proc/self/io), and false where there is no such file.
func writeSyscalls() (int64, bool) {
	stat, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(stat), "\n") {
		if v, found := strings.CutPrefix(line, "syscw: "); found {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}
