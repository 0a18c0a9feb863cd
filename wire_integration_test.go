// Integration test for the wire transport on both hops of a sharded
// deployment: broker workers speak wire to the router, and the router
// speaks wire to its two remote shards. A real CAP3 job must complete
// with zero task loss, and the billing the broker reads over the wire
// must equal the router's own numbers exactly — the wire face is a
// transport, not a different service.
package repro

import (
	"fmt"
	"net"
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

// serveWire serves api over the wire protocol on a loopback listener
// and returns a client for it: a remote queue node, or a router's front
// door.
func serveWire(t *testing.T, api queue.API) *wire.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Service: api}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c := wire.Dial(ln.Addr().String(), wire.Options{})
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBrokerOverRemoteWireShards(t *testing.T) {
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	for i := 0; i < 2; i++ {
		svc := queue.NewService(queue.Config{Seed: int64(i + 1)})
		if err := router.AddShard(fmt.Sprintf("s%d", i), serveWire(t, svc)); err != nil {
			t.Fatal(err)
		}
	}
	wc := serveWire(t, router)

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
		t.Fatalf("done=%d dead=%d, want %d/0 — tasks lost crossing the wire hops", st.Done, st.Dead, tasks)
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
