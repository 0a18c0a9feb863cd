// Package httpx holds the process-wide tuned HTTP transport shared by
// every HTTP client in the repo: the broker's Go client when none is
// injected, and wire.DiscoverAddr's GET /wire probe.
//
// The default net/http transport keeps only 2 idle connections per
// host, so many concurrent callers against one daemon churn through
// ephemeral connections — TIME_WAIT buildup and handshake latency on
// every request. One shared transport with an idle pool sized past any
// realistic concurrency fixes both, and sharing a single transport
// (rather than one per client value) keeps the process's connection
// pool — and its file descriptors — bounded and reusable.
package httpx

import (
	"net/http"
	"time"
)

// Transport is the shared tuned transport. MaxIdleConnsPerHost is
// sized past any concurrency in the repo, so steady-state traffic never
// re-handshakes.
var Transport = &http.Transport{
	MaxIdleConns:        1024,
	MaxIdleConnsPerHost: 512,
	IdleConnTimeout:     90 * time.Second,
}

// Client is the shared client over Transport. It deliberately sets no
// overall request timeout: per-call deadlines belong to the call sites
// that know them.
var Client = &http.Client{Transport: Transport}
