package shard

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/wire"
)

// recorder is the shared call log of every trace-scoped view of one
// recording backend.
type recorder struct {
	mu    sync.Mutex
	calls []string // "op@trace"
}

func (r *recorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// recBackend wraps a real service and records, per call, the op and the
// trace ID the call arrived with. It has the facets of a remote shard
// client: API + Transferrer + TraceScoper.
type recBackend struct {
	svc   *queue.Service
	rec   *recorder
	trace string
}

func (b *recBackend) note(op string) {
	b.rec.mu.Lock()
	b.rec.calls = append(b.rec.calls, op+"@"+b.trace)
	b.rec.mu.Unlock()
}

func (b *recBackend) WithTrace(trace string) queue.API {
	return &recBackend{svc: b.svc, rec: b.rec, trace: trace}
}
func (b *recBackend) CreateQueue(n string) error { b.note("CreateQueue"); return b.svc.CreateQueue(n) }
func (b *recBackend) DeleteQueue(n string) error { b.note("DeleteQueue"); return b.svc.DeleteQueue(n) }
func (b *recBackend) ListQueues() []string       { b.note("ListQueues"); return b.svc.ListQueues() }
func (b *recBackend) SendMessage(q string, body []byte) (string, error) {
	b.note("SendMessage")
	return b.svc.SendMessage(q, body)
}
func (b *recBackend) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	b.note("SendMessageBatch")
	return b.svc.SendMessageBatch(q, bodies)
}
func (b *recBackend) ReceiveMessage(q string, vis time.Duration) (queue.Message, bool, error) {
	b.note("ReceiveMessage")
	return b.svc.ReceiveMessage(q, vis)
}
func (b *recBackend) ReceiveMessageWait(q string, vis, wait time.Duration) (queue.Message, bool, error) {
	b.note("ReceiveMessageWait")
	return b.svc.ReceiveMessageWait(q, vis, wait)
}
func (b *recBackend) ReceiveMessageBatch(q string, vis time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	b.note("ReceiveMessageBatch")
	return b.svc.ReceiveMessageBatch(q, vis, max, wait)
}
func (b *recBackend) DeleteMessage(q, receipt string) error {
	b.note("DeleteMessage")
	return b.svc.DeleteMessage(q, receipt)
}
func (b *recBackend) DeleteMessageBatch(q string, receipts []string) ([]error, error) {
	b.note("DeleteMessageBatch")
	return b.svc.DeleteMessageBatch(q, receipts)
}
func (b *recBackend) ChangeVisibility(q, receipt string, d time.Duration) error {
	b.note("ChangeVisibility")
	return b.svc.ChangeVisibility(q, receipt, d)
}
func (b *recBackend) ApproximateCount(q string) (int, int, error) {
	b.note("ApproximateCount")
	return b.svc.ApproximateCount(q)
}
func (b *recBackend) Purge(q string) error { b.note("Purge"); return b.svc.Purge(q) }
func (b *recBackend) APIRequests() int64   { return b.svc.APIRequests() }
func (b *recBackend) APIRequestsFor(q string) int64 {
	return b.svc.APIRequestsFor(q)
}
func (b *recBackend) TransferIn(q string, body []byte, receives int) (string, error) {
	b.note("TransferIn")
	return b.svc.TransferIn(q, body, receives)
}
func (b *recBackend) TransferInBatch(q string, items []queue.TransferItem) ([]string, error) {
	b.note("TransferInBatch")
	return b.svc.TransferInBatch(q, items)
}

// TestEveryOpOnRouterAndViews drives every queue.API and Transferrer op
// through the bare router, a WithTrace view, and a view of that view.
// All three are the same method bodies, so each must reach the owning
// shard with the same backend op, bill the router exactly once, and
// carry exactly its own trace ID ("" for the bare router) to the
// backend.
func TestEveryOpOnRouterAndViews(t *testing.T) {
	const q = "job-1/tasks"
	// lease sends and receives one message through api and returns its
	// receipt, for the ops that act on a leased message.
	lease := func(t *testing.T, api queue.API) string {
		t.Helper()
		if _, err := api.SendMessage(q, []byte("x")); err != nil {
			t.Fatal(err)
		}
		m, ok, err := api.ReceiveMessage(q, time.Minute)
		if err != nil || !ok {
			t.Fatalf("lease: ok=%v err=%v", ok, err)
		}
		return m.ReceiptHandle
	}
	ops := []struct {
		name string
		// backend is the op the owning shard must see; "" means the router
		// answers from its own state without a backend hop.
		backend string
		// unbilled marks the two billing reads, which must not bill.
		unbilled bool
		// fresh runs the op against a queue that does not exist yet.
		fresh bool
		// leased hands the op the receipt of a leased message.
		leased bool
		run    func(api queue.API, receipt string) error
	}{
		{name: "CreateQueue", backend: "CreateQueue", fresh: true,
			run: func(api queue.API, _ string) error { return api.CreateQueue(q) }},
		{name: "DeleteQueue", backend: "DeleteQueue",
			run: func(api queue.API, _ string) error { return api.DeleteQueue(q) }},
		{name: "ListQueues",
			run: func(api queue.API, _ string) error {
				if got := api.ListQueues(); len(got) != 1 || got[0] != q {
					return fmt.Errorf("ListQueues = %v", got)
				}
				return nil
			}},
		{name: "SendMessage", backend: "SendMessage",
			run: func(api queue.API, _ string) error { _, err := api.SendMessage(q, []byte("a")); return err }},
		{name: "SendMessageBatch", backend: "SendMessageBatch",
			run: func(api queue.API, _ string) error {
				_, err := api.SendMessageBatch(q, [][]byte{[]byte("a"), []byte("b")})
				return err
			}},
		{name: "ReceiveMessage", backend: "ReceiveMessageWait",
			run: func(api queue.API, _ string) error { _, _, err := api.ReceiveMessage(q, time.Minute); return err }},
		{name: "ReceiveMessageWait", backend: "ReceiveMessageWait",
			run: func(api queue.API, _ string) error {
				_, _, err := api.ReceiveMessageWait(q, time.Minute, time.Millisecond)
				return err
			}},
		{name: "ReceiveMessageBatch", backend: "ReceiveMessageBatch",
			run: func(api queue.API, _ string) error {
				_, err := api.ReceiveMessageBatch(q, time.Minute, 4, 0)
				return err
			}},
		{name: "DeleteMessage", backend: "DeleteMessage", leased: true,
			run: func(api queue.API, receipt string) error { return api.DeleteMessage(q, receipt) }},
		{name: "DeleteMessageBatch", backend: "DeleteMessageBatch", leased: true,
			run: func(api queue.API, receipt string) error {
				res, err := api.DeleteMessageBatch(q, []string{receipt})
				if err == nil && res[0] != nil {
					err = res[0]
				}
				return err
			}},
		{name: "ChangeVisibility", backend: "ChangeVisibility", leased: true,
			run: func(api queue.API, receipt string) error { return api.ChangeVisibility(q, receipt, time.Second) }},
		{name: "ApproximateCount", backend: "ApproximateCount",
			run: func(api queue.API, _ string) error { _, _, err := api.ApproximateCount(q); return err }},
		{name: "Purge", backend: "Purge",
			run: func(api queue.API, _ string) error { return api.Purge(q) }},
		{name: "APIRequests", unbilled: true,
			run: func(api queue.API, _ string) error { api.APIRequests(); return nil }},
		{name: "APIRequestsFor", unbilled: true,
			run: func(api queue.API, _ string) error { api.APIRequestsFor(q); return nil }},
		{name: "TransferIn", backend: "TransferInBatch",
			run: func(api queue.API, _ string) error {
				_, err := api.(queue.Transferrer).TransferIn(q, []byte("m"), 3)
				return err
			}},
		{name: "TransferInBatch", backend: "TransferInBatch",
			run: func(api queue.API, _ string) error {
				_, err := api.(queue.Transferrer).TransferInBatch(q, []queue.TransferItem{{Body: []byte("m"), Receives: 2}})
				return err
			}},
	}
	faces := []struct {
		name, trace string
		of          func(r *Router) queue.API
	}{
		{"router", "", func(r *Router) queue.API { return r }},
		{"view", "t", func(r *Router) queue.API { return r.WithTrace("t") }},
		{"view of view", "t2", func(r *Router) queue.API {
			return r.WithTrace("t").(queue.TraceScoper).WithTrace("t2")
		}},
	}
	for _, op := range ops {
		for _, face := range faces {
			t.Run(op.name+"/"+face.name, func(t *testing.T) {
				r := NewRouter(Config{})
				defer r.Close()
				recs := map[string]*recorder{}
				for _, id := range []string{"s0", "s1", "s2"} {
					recs[id] = &recorder{}
					svc := queue.NewService(queue.Config{})
					if err := r.AddShard(id, &recBackend{svc: svc, rec: recs[id]}); err != nil {
						t.Fatal(err)
					}
				}
				api := face.of(r)
				if !op.fresh {
					if err := api.CreateQueue(q); err != nil {
						t.Fatal(err)
					}
				}
				var receipt string
				if op.leased {
					receipt = lease(t, api)
				}
				for _, rec := range recs {
					rec.take()
				}
				billedFor, billed := r.APIRequestsFor(q), r.APIRequests()

				if err := op.run(api, receipt); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}

				wantBill := int64(1)
				if op.unbilled {
					wantBill = 0
				}
				if got := r.APIRequests() - billed; got != wantBill {
					t.Errorf("router billed %d requests in total, want %d", got, wantBill)
				}
				if op.name != "ListQueues" { // billed unattributed
					if got := r.APIRequestsFor(q) - billedFor; got != wantBill {
						t.Errorf("router billed %d requests to %s, want %d", got, q, wantBill)
					}
				}
				owner := r.Owners()[q]
				if op.name == "DeleteQueue" {
					// The route is gone; the owner is whoever saw the call.
					for id, rec := range recs {
						if len(rec.calls) > 0 {
							owner = id
						}
					}
				}
				for id, rec := range recs {
					got := strings.Join(rec.take(), " ")
					want := ""
					if id == owner && op.backend != "" {
						want = op.backend + "@" + face.trace
					}
					if got != want {
						t.Errorf("shard %s (owner %s) saw %q, want %q", id, owner, got, want)
					}
				}
			})
		}
	}
}

// facetNames lists the optional surfaces a CapabilitySet reports.
func facetNames(c queue.CapabilitySet) string {
	var names []string
	for _, f := range []struct {
		name string
		has  bool
	}{
		{"Transfer", c.Transfer != nil},
		{"Depth", c.Depth != nil},
		{"Trace", c.Trace != nil},
		{"Recover", c.Recover != nil},
		{"Ping", c.Ping != nil},
	} {
		if f.has {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ",")
}

// TestCapabilityFacets pins the exact optional-facet set of each
// implementation and of its trace views. bench/harness.Wrap composes its
// interposer from these sets and rejects any other, so an embedding that
// promoted one method too many (or dropped one) would break the traced
// benchmark run, not just this test.
func TestCapabilityFacets(t *testing.T) {
	svc := queue.NewService(queue.Config{})
	r, _ := newTestRouter(t, 1)
	client := wire.Dial("127.0.0.1:1", wire.Options{}) // never dialled: facets are a property of the type
	defer client.Close()
	for _, tc := range []struct {
		name string
		api  queue.API
		want string
	}{
		{"*queue.Service", svc, "Transfer,Depth,Recover,Ping"},
		{"*shard.Router", r, "Transfer,Trace"},
		{"Router.WithTrace", r.WithTrace("t"), "Transfer,Trace"},
		{"Router.WithTrace.WithTrace", r.WithTrace("t").(queue.TraceScoper).WithTrace("u"), "Transfer,Trace"},
		{"*wire.Client", client, "Transfer,Trace"},
		{"wire.Client.WithTrace", client.WithTrace("t"), "Transfer,Trace"},
	} {
		if got := facetNames(queue.Capabilities(tc.api)); got != tc.want {
			t.Errorf("%s: facets {%s}, want {%s}", tc.name, got, tc.want)
		}
	}
}
