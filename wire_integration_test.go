// Integration test for the binary wire transport in a mixed-transport
// deployment: broker workers speak wire to the router, while the
// router's shards are plain HTTP/JSON queue nodes. A real CAP3 job must
// complete with zero task loss, and the billing the broker reads over
// the wire must equal the router's own numbers exactly — the wire face
// is a transport, not a different service.
package repro

import (
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/workload"
)

func TestBrokerOverMixedTransports(t *testing.T) {
	// Two plain HTTP queue nodes behind the router — no wire listener
	// on either; only the router's front door speaks wire.
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	for i := 0; i < 2; i++ {
		svc := queue.NewService(queue.Config{Seed: int64(i + 1)})
		hs := httptest.NewServer(&queue.HTTPHandler{Service: svc})
		defer hs.Close()
		if err := router.AddShard(fmt.Sprintf("s%d", i), &queue.HTTPClient{BaseURL: hs.URL}); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := &wire.Server{Service: router}
	go ws.Serve(ln)
	defer ws.Close()

	wc := wire.Dial(ln.Addr().String(), wire.Options{})
	defer wc.Close()

	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: wc,
	}
	b := broker.New(broker.Config{
		Env:                env,
		WorkersPerInstance: 2,
		VisibilityTimeout:  600 * time.Millisecond,
		TickInterval:       15 * time.Millisecond,
		Autoscale: broker.AutoscalePolicy{
			MinInstances:       1,
			MaxInstances:       4,
			BacklogPerInstance: 16,
			ScaleDownCooldown:  60 * time.Millisecond,
		},
	})
	defer b.Close()

	const tasks = 24
	files := make(map[string][]byte, tasks)
	for i := 0; i < tasks; i++ {
		doc, err := workload.Cap3File(int64(i+1), 40, 1200)
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("region%02d.fsa", i)] = doc
	}

	j, err := b.Submit(broker.JobRequest{App: "cap3", Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(60 * time.Second); err != nil {
		t.Fatalf("job did not complete: %v", err)
	}
	st := j.Status()
	if st.Done != tasks || st.Dead != 0 {
		t.Fatalf("done=%d dead=%d, want %d/0 — tasks lost crossing transports", st.Done, st.Dead, tasks)
	}

	// Exact billing: the cost report the broker assembled by asking the
	// wire client must equal what the router says when asked directly.
	// Any drift means the wire face dropped or double-counted requests.
	cr := j.CostReport()
	direct := router.APIRequestsFor(st.ID+"/tasks") +
		router.APIRequestsFor(st.ID+"/monitor") +
		router.APIRequestsFor(st.ID+"/dead")
	if cr.QueueRequests != direct {
		t.Fatalf("wire-reported queue requests %d != router's own %d", cr.QueueRequests, direct)
	}
	if cr.QueueRequests <= 0 {
		t.Fatal("no queue requests billed — the job did not run through the router")
	}
	// And the client's aggregate view agrees with the router's.
	if got, want := wc.APIRequests(), router.APIRequests(); got != want {
		t.Fatalf("wire APIRequests %d != router %d", got, want)
	}
}
