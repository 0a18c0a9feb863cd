// Mixed-transport topology: a router whose shards speak different
// transports — one plain HTTP/JSON node, one node advertising the
// binary wire protocol — must migrate queues between them in both
// directions with zero message loss and delivery counts preserved.
// The wire-backed shard exercises the batched transfer frames and the
// batched drain receive; the HTTP shard proves the transports compose.
package shard_test

import (
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
)

func TestMigrationAcrossMixedTransports(t *testing.T) {
	const token = "transfer-secret"

	// Shard 1: a queue node reachable only over HTTP/JSON.
	svcHTTP := queue.NewService(queue.Config{Seed: 1})
	hsHTTP := httptest.NewServer(&queue.HTTPHandler{Service: svcHTTP, AdminTokens: []string{token}})
	defer hsHTTP.Close()
	backendHTTP := &queue.HTTPClient{BaseURL: hsHTTP.URL, AdminToken: token}

	// Shard 2: a queue node serving both faces and advertising its
	// wire listener through GET /wire.
	svcWire := queue.NewService(queue.Config{Seed: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := &wire.Server{Service: svcWire, AdminTokens: []string{token}}
	go ws.Serve(ln)
	defer ws.Close()
	hsWire := httptest.NewServer(&queue.HTTPHandler{Service: svcWire, AdminTokens: []string{token}, WireAddr: ln.Addr().String()})
	defer hsWire.Close()

	// Upgrade to the wire face exactly the way cmd/queuerouter does:
	// probe the advertisement, keep HTTP as the fallback.
	waddr, ok := wire.DiscoverAddr(hsWire.URL)
	if !ok || waddr != ln.Addr().String() {
		t.Fatalf("DiscoverAddr = %q, %v; want %q", waddr, ok, ln.Addr().String())
	}
	backendWire := wire.Dial(waddr, wire.Options{
		AdminToken: token,
		Fallback:   &queue.HTTPClient{BaseURL: hsWire.URL, AdminToken: token},
	})
	defer backendWire.Close()

	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	if err := router.AddShard("http-node", backendHTTP); err != nil {
		t.Fatal(err)
	}
	if err := router.AddShard("wire-node", backendWire); err != nil {
		t.Fatal(err)
	}

	// Six placement groups, three messages each; stamp one delivery on
	// one message per queue so count preservation is observable after
	// the queue crosses transports.
	const queues, perQueue = 6, 3
	qname := func(i int) string { return fmt.Sprintf("g%d/tasks", i) }
	for i := 0; i < queues; i++ {
		if err := router.CreateQueue(qname(i)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perQueue; j++ {
			if _, err := router.SendMessage(qname(i), []byte(fmt.Sprintf("q%d-m%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
		m, ok, err := router.ReceiveMessage(qname(i), time.Minute)
		if err != nil || !ok {
			t.Fatalf("stamp receive on %s: ok=%v err=%v", qname(i), ok, err)
		}
		if err := router.ChangeVisibility(qname(i), m.ReceiptHandle, 0); err != nil {
			t.Fatalf("release stamp on %s: %v", qname(i), err)
		}
	}

	depth := func(svc *queue.Service) int {
		total := 0
		for _, name := range svc.ListQueues() {
			v, f, err := svc.QueueDepth(name)
			if err != nil {
				t.Fatal(err)
			}
			total += v + f
		}
		return total
	}
	if depth(svcHTTP) == 0 || depth(svcWire) == 0 {
		t.Fatalf("placement did not split across shards (http=%d wire=%d) — pick different group names", depth(svcHTTP), depth(svcWire))
	}

	// Drain the wire shard: its queues stream out through the wire
	// client's batched receive into the HTTP node's transfer endpoint.
	if err := router.RemoveShard("wire-node"); err != nil {
		t.Fatal(err)
	}
	if got := depth(svcHTTP); got != queues*perQueue {
		t.Fatalf("after removing the wire shard the HTTP node holds %d messages, want %d", got, queues*perQueue)
	}
	if got := depth(svcWire); got != 0 {
		t.Fatalf("wire node still holds %d messages after drain", got)
	}

	// Bring the wire shard back under a fresh id (retired ids stay
	// registered so old receipts keep resolving): rebalancing streams
	// queues the other way, through the wire transfer opcode (batched
	// frames).
	if err := router.AddShard("wire-node-2", backendWire); err != nil {
		t.Fatal(err)
	}
	if got := depth(svcHTTP) + depth(svcWire); got != queues*perQueue {
		t.Fatalf("after re-adding the wire shard %d messages exist, want %d", got, queues*perQueue)
	}
	if depth(svcWire) == 0 {
		t.Fatal("no queue migrated back to the wire shard")
	}

	// Zero loss, exact counts: every queue drains exactly its three
	// distinct bodies through the router, the stamped message reports
	// its delivery history across two migrations, and nothing is left.
	for i := 0; i < queues; i++ {
		bodies := map[string]int{}
		stamped := 0
		for j := 0; j < perQueue; j++ {
			m, ok, err := router.ReceiveMessageWait(qname(i), time.Minute, 2*time.Second)
			if err != nil || !ok {
				t.Fatalf("final drain %s #%d: ok=%v err=%v", qname(i), j, ok, err)
			}
			bodies[string(m.Body)]++
			switch m.Receives {
			case 2:
				stamped++
			case 1:
			default:
				t.Fatalf("message %q has Receives=%d after two migrations, want 1 or 2", m.Body, m.Receives)
			}
			if err := router.DeleteMessage(qname(i), m.ReceiptHandle); err != nil {
				t.Fatalf("final delete %s: %v", qname(i), err)
			}
		}
		if len(bodies) != perQueue {
			t.Fatalf("queue %s drained %d distinct bodies, want %d: %v", qname(i), len(bodies), perQueue, bodies)
		}
		if stamped != 1 {
			t.Fatalf("queue %s: %d messages carry the migration-surviving delivery stamp, want exactly 1", qname(i), stamped)
		}
		if _, ok, err := router.ReceiveMessage(qname(i), time.Minute); ok || err != nil {
			t.Fatalf("queue %s not empty after drain (ok=%v err=%v)", qname(i), ok, err)
		}
	}

	// The privileged path was genuinely exercised over the wire: the
	// wire node billed transfer traffic when queues streamed back in.
	if errors.Is(err, nil) && svcWire.APIRequests() == 0 {
		t.Fatal("wire node billed no requests — migrations did not touch it")
	}
}
