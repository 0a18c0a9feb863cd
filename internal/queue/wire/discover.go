package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/httpx"
)

// advertisement is the GET /wire answer: the address of the node's wire
// listener.
type advertisement struct {
	Addr string `json:"addr"`
}

// Advertise answers GET /wire for a node whose wire listener is addr —
// the answer DiscoverAddr reads.
func Advertise(addr string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(advertisement{Addr: addr})
	})
}

// DiscoverAddr asks the queue node at baseURL for the address of its
// wire listener, via its GET /wire advertisement. The error says why
// there is none: the node is unreachable, answered something other than
// 200, or advertised no address. The whole probe is bounded by
// dialTimeout, so a node that accepts and never answers, or a
// black-holed address, costs a router's start-up or an admin request
// that long and no longer.
//
// An advertised address without a host (":8091"), or with an
// unspecified one ("[::]:8091", what a listener on ":0" reports), is
// resolved against the base URL's host, so a node that listens on all
// interfaces does not need to know its own public name.
func DiscoverAddr(baseURL string) (string, error) {
	probe := http.Client{Transport: httpx.Transport, Timeout: dialTimeout}
	resp, err := probe.Get(strings.TrimSuffix(baseURL, "/") + "/wire")
	if err != nil {
		return "", fmt.Errorf("wire: %s unreachable: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("wire: %s answered GET /wire with %s", baseURL, resp.Status)
	}
	var ad advertisement
	if err := json.NewDecoder(resp.Body).Decode(&ad); err != nil || ad.Addr == "" {
		return "", fmt.Errorf("wire: %s advertises no wire address", baseURL)
	}
	if host, port, err := net.SplitHostPort(ad.Addr); err == nil && (host == "" || net.ParseIP(host).IsUnspecified()) {
		if u, err := url.Parse(baseURL); err == nil && u.Hostname() != "" {
			ad.Addr = net.JoinHostPort(u.Hostname(), port)
		}
	}
	return ad.Addr, nil
}
