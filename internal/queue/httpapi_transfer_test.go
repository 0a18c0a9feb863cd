package queue

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// transferFixture serves a Service with a provisioned admin token and
// returns a privileged client plus the underlying service.
func transferFixture(t *testing.T, serverToken string) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(Config{Seed: 1})
	srv := httptest.NewServer(&HTTPHandler{Service: svc, AdminTokens: []string{serverToken}})
	t.Cleanup(srv.Close)
	return svc, srv
}

// TestHTTPTransferRoundTrip: a privileged client transfers a counted
// message and the count survives the wire.
func TestHTTPTransferRoundTrip(t *testing.T) {
	svc, srv := transferFixture(t, "sekrit")
	c := &HTTPClient{BaseURL: srv.URL, AdminToken: "sekrit"}
	if err := c.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	ids, err := c.TransferInBatch("q", []TransferItem{
		{Body: []byte("a"), Receives: 2},
		{Body: []byte("b"), Receives: 0},
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("transfer: ids=%v err=%v", ids, err)
	}
	counts := map[string]int{}
	for i := 0; i < 2; i++ {
		m, ok, err := c.ReceiveMessage("q", time.Minute)
		if err != nil || !ok {
			t.Fatalf("receive %d: ok=%v err=%v", i, ok, err)
		}
		counts[string(m.Body)] = m.Receives
	}
	if counts["a"] != 3 || counts["b"] != 1 {
		t.Errorf("receive counts after wire transfer = %v, want a:3 b:1", counts)
	}
	_ = svc
}

// TestHTTPTransferPrivilege: every flavour of unprivileged caller gets
// ErrNotPrivileged — no token, a wrong token, and a server whose
// endpoint was never provisioned.
func TestHTTPTransferPrivilege(t *testing.T) {
	_, srv := transferFixture(t, "sekrit")
	mk := func(baseURL, token string) error {
		c := &HTTPClient{BaseURL: baseURL, AdminToken: token}
		if err := c.CreateQueue("q"); err != nil && !errors.Is(err, ErrQueueExists) {
			t.Fatal(err)
		}
		_, err := c.TransferIn("q", []byte("x"), 1)
		return err
	}
	if err := mk(srv.URL, ""); !errors.Is(err, ErrNotPrivileged) {
		t.Errorf("no token: %v, want ErrNotPrivileged", err)
	}
	if err := mk(srv.URL, "wrong"); !errors.Is(err, ErrNotPrivileged) {
		t.Errorf("wrong token: %v, want ErrNotPrivileged", err)
	}
	// Endpoint not provisioned at all: even the "right" token fails.
	_, bare := transferFixture(t, "")
	if err := mk(bare.URL, "sekrit"); !errors.Is(err, ErrNotPrivileged) {
		t.Errorf("unprovisioned server: %v, want ErrNotPrivileged", err)
	}
	// The public path is untouched by privilege checks.
	c := &HTTPClient{BaseURL: srv.URL}
	if _, err := c.SendMessage("q", []byte("public")); err != nil {
		t.Errorf("public send alongside a gated transfer endpoint: %v", err)
	}
}

// TestHTTPTransferBadRequests: malformed bodies and negative receive
// counts are 400s, and nothing is enqueued.
func TestHTTPTransferBadRequests(t *testing.T) {
	svc, srv := transferFixture(t, "sekrit")
	if err := svc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/q/q/transfer", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer sekrit")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"items": [`); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", got)
	}
	if got := post(`{"items": [{"body": "eA==", "receives": -3}]}`); got != http.StatusBadRequest {
		t.Errorf("negative receives: status %d, want 400", got)
	}
	if got := post(`{"items": []}`); got != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", got)
	}
	if v, inf, _ := svc.ApproximateCount("q"); v != 0 || inf != 0 {
		t.Errorf("rejected transfer enqueued messages: %d/%d", v, inf)
	}
}

// TestHTTPTransferUnknownQueue: the ErrNoSuchQueue sentinel crosses the
// wire in both directions — the server maps it to 404, the client maps
// 404 back so errors.Is holds on both sides.
func TestHTTPTransferUnknownQueue(t *testing.T) {
	svc, srv := transferFixture(t, "sekrit")
	if _, err := svc.TransferIn("ghost", []byte("x"), 1); !errors.Is(err, ErrNoSuchQueue) {
		t.Fatalf("server side: %v, want ErrNoSuchQueue", err)
	}
	c := &HTTPClient{BaseURL: srv.URL, AdminToken: "sekrit"}
	if _, err := c.TransferIn("ghost", []byte("x"), 1); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("client side: %v, want ErrNoSuchQueue across the wire", err)
	}
}

// TestHTTPTransferBilling: one transfer batch bills the destination
// queue exactly one request, observable through the public billing
// endpoint.
func TestHTTPTransferBilling(t *testing.T) {
	svc, srv := transferFixture(t, "sekrit")
	c := &HTTPClient{BaseURL: srv.URL, AdminToken: "sekrit"}
	if err := c.CreateQueue("dst"); err != nil {
		t.Fatal(err)
	}
	base := svc.APIRequestsFor("dst")
	items := make([]TransferItem, 5)
	for i := range items {
		items[i] = TransferItem{Body: []byte("m"), Receives: i}
	}
	if _, err := c.TransferInBatch("dst", items); err != nil {
		t.Fatal(err)
	}
	if got := svc.APIRequestsFor("dst") - base; got != 1 {
		t.Errorf("5-item transfer billed %d requests to the destination, want exactly 1", got)
	}
	if got := c.APIRequestsFor("dst"); got != base+1 {
		t.Errorf("billing endpoint reports %d, want %d", got, base+1)
	}
}

// TestHTTPGroupedQueueNames: a placement-grouped name ("job-1/tasks")
// survives the HTTP path as one escaped segment end to end — create,
// send, receive, ack, count, purge, delete.
func TestHTTPGroupedQueueNames(t *testing.T) {
	_, srv := transferFixture(t, "")
	c := &HTTPClient{BaseURL: srv.URL}
	const qn = "job-1/tasks"
	if err := c.CreateQueue(qn); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendMessage(qn, []byte("grouped")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := c.ReceiveMessage(qn, time.Minute)
	if err != nil || !ok || string(m.Body) != "grouped" {
		t.Fatalf("receive on grouped name: ok=%v err=%v body=%q", ok, err, m.Body)
	}
	if !strings.Contains(m.ReceiptHandle, "/") || !strings.Contains(m.ReceiptHandle, "#") {
		t.Fatalf("receipt %q no longer exercises %%2F and %%23 escaping", m.ReceiptHandle)
	}
	if err := c.ChangeVisibility(qn, m.ReceiptHandle, time.Minute); err != nil {
		t.Fatalf("change visibility on grouped name: %v", err)
	}
	if err := c.DeleteMessage(qn, m.ReceiptHandle); err != nil {
		t.Fatalf("ack on grouped name: %v", err)
	}
	if v, inf, err := c.ApproximateCount(qn); err != nil || v != 0 || inf != 0 {
		t.Fatalf("count on grouped name: %d/%d (%v)", v, inf, err)
	}
	if err := c.Purge(qn); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteQueue(qn); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApproximateCount(qn); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("deleted grouped queue: %v, want ErrNoSuchQueue", err)
	}
}
