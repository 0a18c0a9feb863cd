package wire

import (
	"encoding/json"
	"net"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/httpx"
)

// DiscoverAddr asks a queue node's JSON face whether it serves the
// wire protocol, via the GET /wire advertisement queue.HTTPHandler
// exposes when configured with a WireAddr. It returns the dialable
// address and true, or false when the node does not advertise one
// (older node, wire face disabled, or unreachable) — the caller then
// stays on HTTP, which is exactly the router's fallback contract. The
// whole probe is bounded by defaultDialTimeout, so a node that accepts
// and never answers, or a black-holed address, costs a router's
// start-up or an admin request that long and no longer.
//
// An advertised address without a host (":8091") is resolved against
// the HTTP base URL's host, so a node that listens on all interfaces
// does not need to know its own public name.
func DiscoverAddr(baseURL string) (string, bool) {
	probe := http.Client{Transport: httpx.Transport, Timeout: defaultDialTimeout}
	resp, err := probe.Get(strings.TrimSuffix(baseURL, "/") + "/wire")
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return "", false
	}
	var out struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Addr == "" {
		return "", false
	}
	if host, port, err := net.SplitHostPort(out.Addr); err == nil && host == "" {
		if u, err := url.Parse(baseURL); err == nil && u.Hostname() != "" {
			out.Addr = net.JoinHostPort(u.Hostname(), port)
		}
	}
	return out.Addr, true
}
