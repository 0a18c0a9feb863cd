// Command queuerouter runs the sharded queue front as a daemon: one
// SQS-shaped HTTP endpoint (the same protocol a single queue service
// serves) backed by N shards, each either an in-process service or a
// remote queue node reached over HTTP. Queue names map to shards by
// consistent hashing; shards can be added and removed at runtime
// through the admin API, with live queues migrated by drain-and-forward.
//
// Usage:
//
//	queuerouter -addr :8090 -shards a=http://node1:8080,b=http://node2:8080
//	queuerouter -addr :8090 -local 4     # 4 in-process shards (demo/bench)
//	queuerouter -addr :8090 -local 4 -wire-addr :8091   # + binary wire listener
//
// Queue API: every endpoint of internal/queue.HTTPHandler, unchanged —
// consumers point their queue.HTTPClient at the router instead of a
// single node. With -wire-addr the router additionally serves the
// binary wire protocol (internal/queue/wire) on a second listener and
// advertises it at GET /wire, so wire.Client consumers skip JSON and
// HTTP framing on the hot path. The router itself probes each remote
// shard's GET /wire on registration and speaks wire to shards that
// advertise it, falling back to HTTP/JSON per request if the wire
// connection is down.
//
// Admin API — every endpoint answers the same versioned JSON envelope,
// {"v":1,"ok":true,"data":…} on success and
// {"v":1,"ok":false,"error":{"code":…,"message":…}} on failure, with
// stable machine-readable codes ("no_such_queue", "no_standby", …)
// mapped from the queue and shard error sentinels so clients switch on
// the code rather than parsing message text:
//
//	GET    /admin/shards               data: {"shards":[…],"groups":[…],
//	                                   "splits":{…},"standbys":[…],
//	                                   "standby_lag":{…},"failovers":N,
//	                                   "autoscale":{…}} — placement,
//	                                   billing, load, weights, replication
//	                                   (journal bytes behind), policy
//	PUT    /admin/shards/{id}?url=U    add a shard (migrates ≈1/N of queue groups)
//	DELETE /admin/shards/{id}          retire a shard (migrates its queues)
//	POST   /admin/rebalance            retry migrations the ring implies
//	POST   /admin/regroup?queue=Q&group=G  move a queue into placement group G
//	POST   /admin/regroup?prefix=P&group=G bulk-move every live queue whose
//	                                       name starts with P (data:
//	                                       {"matched": N})
//	POST   /admin/split?group=G&k=N    spread group G over N sub-arcs (k=1
//	                                   merges it back onto one shard)
//	POST   /admin/split?group=G&pin=true   opt G out of splitting (strict
//	                                       co-location; pin=false re-admits it)
//	POST   /admin/failover?shard=ID    promote the shard's registered standby
//	                                   and swap it in under the same id
//	                                   ("no_standby" when none is registered)
//
// Durability & replication: -durable journals every in-process shard's
// accepted mutations write-ahead to a shared blob store, so a crashed
// shard's exact state — depths, delivery counts, live receipts — is
// recoverable; -snapshot-every bounds replay. -replicate additionally
// runs a warm follower per durable shard, registered as its failover
// standby; -health-interval starts the router's probe loop, which
// fails a dead shard over to its caught-up follower automatically
// (operators can also POST /admin/failover).
//
// Journals are binary (internal/queue/durcodec.go). -dump-journal
// bucket/key prints one as JSON lines — a header, the epoch's snapshot,
// then one line per record — and exits without starting a router. It
// only reads, and reads files: ./bucket/key and its snapshot objects
// ./bucket/key.snap.N, as copied out of the blob service that holds
// them (this daemon's own journal store lives in its memory and dies
// with it). A damaged journal is printed up to the damage, then the
// error with its byte offset, and the exit status is 1.
//
// Load-aware operation: -autoscale enables the router-side shard-fleet
// policy (internal/queue/shard.AutoscalePolicy) — it splits hot
// placement groups across sub-arcs past -split-threshold, weights ring
// arcs toward equal observed load, and grows/shrinks the fleet between
// -autoscale-min and -autoscale-max using pre-provisioned
// -autoscale-reserve shards first, then (with -local) fresh in-process
// shards.
//
// Observability:
//
//	GET /metrics    router telemetry — per-op latency histograms, per-shard
//	                request rates and backlog gauges, HTTP latency
//	                (Prometheus text; ?format=json for JSON)
//
// -slow logs any request slower than the threshold, keyed by the
// X-Trace-Id request header (generated when absent, echoed always), so a
// slow call is attributable across router and shard logs. -pprof
// additionally serves net/http/pprof under /debug/pprof/.
//
// Placement groups: the ring hashes the part of a queue name before
// the first '/' (so "job-7/tasks" and "job-7/monitor" share a shard);
// /admin/regroup migrates a pre-existing ungrouped queue into its
// group's shard via the same drain-and-forward machinery.
//
// Migration transfers messages with their delivery counts preserved
// through the privileged transfer endpoint. -transfer-token provisions
// that endpoint on this router AND authorizes the router against its
// remote shards (which must run with the same token); without it,
// migration falls back to a count-resetting public re-send. The flag
// takes a comma-separated list for zero-downtime rotation: every listed
// token is ACCEPTED on this router's transfer endpoint, and the FIRST is
// presented to remote shards — provision old+new on the shards, list
// "new,old" here, then drop the old everywhere.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/journal"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/telemetry"
)

// dumpJournal prints the shard journal ref ("bucket/key") found under
// fsys as JSON lines: the log object bucket/key and its snapshot objects
// bucket/key.snap.N are loaded into a scratch store for
// queue.DumpJournal to read.
func dumpJournal(w io.Writer, fsys fs.FS, ref string) error {
	bucket, key, ok := strings.Cut(ref, "/")
	if !ok || bucket == "" || key == "" {
		return fmt.Errorf("bad journal %q (want bucket/key)", ref)
	}
	names, err := fs.Glob(fsys, ref+".snap.*")
	if err != nil {
		return err
	}
	store := blob.NewStore(blob.Config{})
	if err := store.CreateBucket(bucket); err != nil {
		return err
	}
	for _, name := range append(names, ref) {
		data, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		if err := store.Put(bucket, strings.TrimPrefix(name, bucket+"/"), data); err != nil {
			return err
		}
	}
	return queue.DumpJournal(w, journal.Log{Store: store, Bucket: bucket, Key: key})
}

// parseShards decodes "a=http://node1:8080,b=http://node2:8080".
func parseShards(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad shard %q (want id=url)", pair)
		}
		out[id] = url
	}
	return out, nil
}

// dialShard builds the backend for a remote shard: the wire transport
// when the node advertises one at GET /wire, plain HTTP otherwise. The
// HTTP client always exists — it is the wire client's per-request
// fallback, so a wire listener outage degrades to JSON instead of
// failing traffic.
func dialShard(url, token string, reg *telemetry.Registry) (queue.API, string) {
	httpc := &queue.HTTPClient{BaseURL: url, AdminToken: token}
	if waddr, ok := wire.DiscoverAddr(url); ok {
		return wire.Dial(waddr, wire.Options{
			AdminToken: token,
			Metrics:    reg,
			Fallback:   httpc,
		}), fmt.Sprintf("%s (wire %s)", url, waddr)
	}
	return httpc, url + " (http)"
}

// adminHandler manages router topology and placement over HTTP.
type adminHandler struct {
	router  *shard.Router
	metrics *telemetry.Registry
	// auto is the shard-fleet autoscaler when -autoscale is set; its
	// status rides along on GET /admin/shards.
	auto *shard.Autoscaler
	// followers are the -replicate standbys by shard id; GET /admin/shards
	// reports how far each still-registered one is behind its primary.
	followers map[string]*queue.Follower
	// transferToken authorizes shards added at runtime for
	// count-preserving transfers.
	transferToken string

	once sync.Once
	mux  *http.ServeMux
}

// adminV versions the admin envelope; bump it only on a breaking
// change to the envelope shape itself (data payloads may grow fields
// within a version).
const adminV = 1

// adminResponse is the envelope every /admin/* endpoint returns:
// exactly one of Data (ok) or Error (not ok) is populated.
type adminResponse struct {
	V     int         `json:"v"`
	OK    bool        `json:"ok"`
	Data  any         `json:"data,omitempty"`
	Error *adminError `json:"error,omitempty"`
}

// adminError carries a stable machine-readable code alongside the
// human-readable message; clients branch on Code.
type adminError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// adminErrCodes maps queue and shard error sentinels onto envelope
// codes and HTTP statuses, first match wins. Anything unrecognized is an
// upstream failure ("internal", 502) — the admin request itself was
// valid.
var adminErrCodes = []struct {
	err    error
	code   string
	status int
}{
	{queue.ErrNoSuchQueue, "no_such_queue", http.StatusNotFound},
	{shard.ErrNoSuchShard, "no_such_shard", http.StatusNotFound},
	{shard.ErrShardExists, "shard_exists", http.StatusConflict},
	{shard.ErrNoStandby, "no_standby", http.StatusConflict},
	{shard.ErrGroupPinned, "group_pinned", http.StatusConflict},
	{shard.ErrNoShards, "no_shards", http.StatusConflict},
	{shard.ErrBadShardID, "bad_shard_id", http.StatusBadRequest},
	{shard.ErrBadGroup, "bad_group", http.StatusBadRequest},
	{shard.ErrBadSplit, "bad_split", http.StatusBadRequest},
	{queue.ErrHalted, "shard_halted", http.StatusBadGateway},
}

// writeAdmin answers the success envelope. A nil data is legal — the
// envelope's ok:true is the result.
func writeAdmin(w http.ResponseWriter, status int, data any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(adminResponse{V: adminV, OK: true, Data: data})
}

// writeAdminFail answers the failure envelope with an explicit code,
// for request-shape errors that never reached the router.
func writeAdminFail(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(adminResponse{V: adminV, OK: false, Error: &adminError{Code: code, Message: msg}})
}

// adminShardsView is the GET /admin/shards data payload: both
// placement axes plus replication and live policy state.
type adminShardsView struct {
	Shards     []shard.ShardStat      `json:"shards"`
	Groups     []shard.GroupStat      `json:"groups"`
	Splits     map[string]int         `json:"splits"`
	Standbys   []string               `json:"standbys"`
	StandbyLag map[string]standbyLag  `json:"standby_lag,omitempty"`
	Failovers  int64                  `json:"failovers"`
	Autoscale  *shard.AutoscaleStatus `json:"autoscale,omitempty"`
}

// standbyLag is the journal bytes one standby is behind its primary;
// Error is its latest catch-up failure (the lag is then not shrinking).
type standbyLag struct {
	Bytes int64  `json:"bytes"`
	Error string `json:"error,omitempty"`
}

// init builds the admin route table, as queue.HTTPHandler does the queue
// face's. Each path's method-less twin (less specific than its method
// patterns) and "/" keep a wrong method and an unknown path inside the
// JSON envelope; only a mux's own 301 for a non-canonical path ("//",
// "..") is plain text, as it always was from main's outer mux.
func (h *adminHandler) init() {
	h.mux = http.NewServeMux()
	type methods map[string]http.HandlerFunc
	route := func(path string, serve methods) {
		for method, fn := range serve {
			h.mux.HandleFunc(method+" "+path, fn)
		}
		h.mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			writeAdminFail(w, http.StatusMethodNotAllowed, "method_not_allowed", "unsupported method for path")
		})
	}
	route("/admin/rebalance", methods{"POST": h.serveRebalance})
	route("/admin/failover", methods{"POST": h.serveFailover})
	route("/admin/regroup", methods{"POST": h.serveRegroup})
	route("/admin/split", methods{"POST": h.serveSplit})
	route("/admin/shards", methods{"GET": h.serveShards})
	h.mux.HandleFunc("GET /admin/shards/{$}", h.serveShards)
	route("/admin/shards/{id...}", methods{"PUT": h.serveAddShard, "DELETE": h.serveRemoveShard})
	h.mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		writeAdminFail(w, http.StatusNotFound, "not_found", "unknown admin endpoint")
	})
}

func (h *adminHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.once.Do(h.init)
	h.mux.ServeHTTP(w, r)
}

// reply finishes a topology operation: the failure envelope for its
// error, mapped through adminErrCodes, otherwise one log line and the
// success envelope.
func reply(w http.ResponseWriter, err error, status int, data any, format string, args ...any) {
	if err != nil {
		for _, c := range adminErrCodes {
			if errors.Is(err, c.err) {
				writeAdminFail(w, c.status, c.code, err.Error())
				return
			}
		}
		writeAdminFail(w, http.StatusBadGateway, "internal", err.Error())
		return
	}
	log.Printf("queuerouter: "+format, args...)
	writeAdmin(w, status, data)
}

func (h *adminHandler) serveRebalance(w http.ResponseWriter, _ *http.Request) {
	reply(w, h.router.Rebalance(), http.StatusOK, nil, "rebalanced")
}

func (h *adminHandler) serveFailover(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("shard")
	if id == "" {
		writeAdminFail(w, http.StatusBadRequest, "bad_request", "missing shard parameter")
		return
	}
	reply(w, h.router.Failover(id), http.StatusOK, map[string]string{"shard": id}, "failed over shard %q to its standby", id)
}

func (h *adminHandler) serveRegroup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	queueName, prefix, group := q.Get("queue"), q.Get("prefix"), q.Get("group")
	if (queueName == "") == (prefix == "") {
		writeAdminFail(w, http.StatusBadRequest, "bad_request", "need exactly one of queue= or prefix=")
		return
	}
	if prefix != "" {
		matched, err := h.router.RegroupPrefix(prefix, group)
		reply(w, err, http.StatusOK, map[string]int{"matched": matched},
			"regrouped %d queue(s) with prefix %q into %q", matched, prefix, group)
		return
	}
	reply(w, h.router.Regroup(queueName, group), http.StatusOK, map[string]string{"queue": queueName, "group": group},
		"regrouped %q into %q", queueName, group)
}

func (h *adminHandler) serveSplit(w http.ResponseWriter, r *http.Request) {
	group := r.URL.Query().Get("group")
	if group == "" {
		writeAdminFail(w, http.StatusBadRequest, "bad_request", "missing group parameter")
		return
	}
	if pinStr := r.URL.Query().Get("pin"); pinStr != "" {
		pin, err := strconv.ParseBool(pinStr)
		if err != nil {
			writeAdminFail(w, http.StatusBadRequest, "bad_request", "bad pin parameter")
			return
		}
		reply(w, h.router.PinGroup(group, pin), http.StatusOK, map[string]any{"group": group, "pinned": pin},
			"group %q pinned=%v", group, pin)
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil {
		writeAdminFail(w, http.StatusBadRequest, "bad_request", "bad or missing k parameter")
		return
	}
	reply(w, h.router.SplitGroup(group, k), http.StatusOK, map[string]any{"group": group, "k": k},
		"group %q split to %d sub-arc(s)", group, k)
}

// serveShards answers the placement view from one router snapshot: one
// pass over the routes, one depth probe per queue copy.
func (h *adminHandler) serveShards(w http.ResponseWriter, _ *http.Request) {
	snap := h.router.Snapshot()
	view := adminShardsView{
		Shards:     snap.Shards,
		Groups:     snap.Groups,
		Splits:     h.router.Splits(),
		Standbys:   h.router.Standbys(),
		StandbyLag: make(map[string]standbyLag),
		Failovers:  h.router.Failovers(),
	}
	for _, id := range view.Standbys {
		if f := h.followers[id]; f != nil {
			lag := standbyLag{}
			var err error
			if lag.Bytes, err = f.Lag(); err != nil {
				lag.Error = err.Error()
			}
			view.StandbyLag[id] = lag
		}
	}
	if h.auto != nil {
		st := h.auto.Status()
		view.Autoscale = &st
	}
	writeAdmin(w, http.StatusOK, view)
}

func (h *adminHandler) serveAddShard(w http.ResponseWriter, r *http.Request) {
	id, url := r.PathValue("id"), r.URL.Query().Get("url")
	if url == "" {
		writeAdminFail(w, http.StatusBadRequest, "bad_request", "missing url parameter")
		return
	}
	backend, desc := dialShard(url, h.transferToken, h.metrics)
	reply(w, h.router.AddShard(id, backend), http.StatusCreated, map[string]string{"shard": id, "backend": desc},
		"added shard %q at %s", id, desc)
}

func (h *adminHandler) serveRemoveShard(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reply(w, h.router.RemoveShard(id), http.StatusOK, map[string]string{"shard": id}, "retired shard %q", id)
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shardsFlag := flag.String("shards", "",
		"remote shards as id=url pairs, e.g. a=http://node1:8080,b=http://node2:8080")
	local := flag.Int("local", 0, "run N in-process shards instead of remote ones")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (default 64)")
	wireAddr := flag.String("wire-addr", "",
		"serve the binary wire protocol on this additional listener, advertised at GET /wire (empty disables)")
	transferToken := flag.String("transfer-token", "",
		"admin token(s) for the privileged count-preserving transfer endpoint, comma-separated for rotation: all are accepted by this router, the first is presented to remote shards (empty disables the endpoint; migration then re-sends publicly, resetting delivery counts)")
	slow := flag.Duration("slow", 0,
		"log requests slower than this, keyed by X-Trace-Id (0 disables)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	autoscale := flag.Bool("autoscale", false,
		"enable the shard-fleet autoscaler: split hot groups, weight ring arcs by load, and add/remove shards from the reserve (then in-process spawns with -local)")
	splitThreshold := flag.Float64("split-threshold", 0,
		"group request rate (req/s) past which the autoscaler splits it across sub-arcs (0 = policy default)")
	autoMin := flag.Int("autoscale-min", 0, "autoscaler fleet floor (0 = the starting fleet)")
	autoMax := flag.Int("autoscale-max", 0, "autoscaler fleet cap (0 = policy default)")
	autoTarget := flag.Float64("autoscale-target", 0,
		"request rate one shard is provisioned for, the fleet-utilization denominator (0 = policy default)")
	autoReserve := flag.String("autoscale-reserve", "",
		"pre-provisioned shards the autoscaler may bring onto the ring, as id=url pairs (consumed in order before any in-process spawn)")
	durable := flag.Bool("durable", false,
		"journal every in-process shard's accepted mutations write-ahead to a shared blob store, so exact shard state (depths, delivery counts, live receipts) survives a crash (requires -local)")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"journaled records between snapshots on durable shards, bounding recovery replay (0 = default 4096, negative disables compaction)")
	replicate := flag.Bool("replicate", false,
		"run a warm follower per durable in-process shard, continuously replaying its journal, and register it as the shard's failover standby (requires -durable)")
	healthInterval := flag.Duration("health-interval", 0,
		"probe shards that have standbys at this interval and fail dead ones over to their caught-up follower automatically (0 disables; failover stays available via POST /admin/failover)")
	dump := flag.String("dump-journal", "",
		"print the shard journal `bucket/key` (files ./bucket/key and ./bucket/key.snap.N) as JSON lines and exit; read-only")
	flag.Parse()

	if *dump != "" {
		if err := dumpJournal(os.Stdout, os.DirFS("."), *dump); err != nil {
			log.Fatalf("queuerouter: -dump-journal %s: %v", *dump, err)
		}
		return
	}

	remotes, err := parseShards(*shardsFlag)
	if err != nil {
		log.Fatalf("queuerouter: -shards: %v", err)
	}
	if len(remotes) == 0 && *local <= 0 {
		log.Fatal("queuerouter: need -shards or -local N")
	}
	if *durable && *local <= 0 {
		log.Fatal("queuerouter: -durable journals in-process shards; it requires -local N (remote shards journal on their own nodes)")
	}
	if *replicate && !*durable {
		log.Fatal("queuerouter: -replicate needs -durable (a follower replays the primary's journal)")
	}
	tokens := splitTokens(*transferToken)
	presentToken := ""
	if len(tokens) > 0 {
		presentToken = tokens[0]
	}

	reg := telemetry.NewRegistry()
	router := shard.NewRouter(shard.Config{VirtualNodes: *vnodes, Metrics: reg})
	defer router.Close()
	for id, url := range remotes {
		backend, desc := dialShard(url, presentToken, reg)
		if err := router.AddShard(id, backend); err != nil {
			log.Fatalf("queuerouter: add shard %q: %v", id, err)
		}
		log.Printf("queuerouter: shard %q -> %s", id, desc)
	}
	// Durable mode journals every local shard into one shared blob
	// store (standing in for the storage web service a real deployment
	// would share), one journal object per shard.
	var journalStore *blob.Store
	if *durable {
		journalStore = blob.NewStore(blob.Config{Metrics: reg})
	}
	followers := make(map[string]*queue.Follower)
	for i := 0; i < *local; i++ {
		id := fmt.Sprintf("local%d", i)
		cfg := queue.Config{
			Seed: int64(i + 1), Metrics: reg, MetricsName: id,
		}
		if journalStore != nil {
			cfg.Durability = &queue.Durability{
				Store:         journalStore,
				Bucket:        "queue-journal",
				Key:           "shard-" + id,
				SnapshotEvery: *snapshotEvery,
			}
		}
		svc := queue.NewService(cfg)
		if journalStore != nil {
			if err := svc.Recover(); err != nil {
				log.Fatalf("queuerouter: recover shard %q: %v", id, err)
			}
		}
		if err := router.AddShard(id, svc); err != nil {
			log.Fatalf("queuerouter: add shard %q: %v", id, err)
		}
		if *replicate {
			// The follower shares the journal config but not the
			// metrics name: until promoted it only folds records, and
			// after promotion its traffic counts against the shard id
			// it replaces.
			fcfg := cfg
			fcfg.Metrics, fcfg.MetricsName = nil, ""
			follower, err := queue.NewFollower(fcfg)
			if err != nil {
				log.Fatalf("queuerouter: follower for shard %q: %v", id, err)
			}
			poll := *healthInterval
			if poll <= 0 {
				poll = 250 * time.Millisecond
			}
			follower.Start(poll)
			if err := router.SetStandby(id, follower.PromoteAPI); err != nil {
				log.Fatalf("queuerouter: standby for shard %q: %v", id, err)
			}
			followers[id] = follower
		}
		switch {
		case *replicate:
			log.Printf("queuerouter: shard %q (in-process, durable, replicated)", id)
		case *durable:
			log.Printf("queuerouter: shard %q (in-process, durable)", id)
		default:
			log.Printf("queuerouter: shard %q (in-process)", id)
		}
	}
	if *healthInterval > 0 {
		router.StartHealthChecks(*healthInterval)
		log.Printf("queuerouter: health checks every %s", *healthInterval)
	}

	var auto *shard.Autoscaler
	if *autoscale {
		minShards := *autoMin
		if minShards <= 0 {
			minShards = len(router.Shards())
		}
		reserves, err := parseShards(*autoReserve)
		if err != nil {
			log.Fatalf("queuerouter: -autoscale-reserve: %v", err)
		}
		var reserve []shard.ReserveShard
		for id, url := range reserves {
			backend, desc := dialShard(url, presentToken, reg)
			reserve = append(reserve, shard.ReserveShard{ID: id, Backend: backend})
			log.Printf("queuerouter: reserve shard %q -> %s", id, desc)
		}
		// Reserve shards join the ring in a stable order across restarts.
		sort.Slice(reserve, func(i, j int) bool { return reserve[i].ID < reserve[j].ID })
		var factory shard.ShardFactory
		if *local > 0 {
			// Local mode can mint capacity on demand; a remote-only
			// deployment scales within its provisioned reserve.
			factory = func(id string) (queue.API, error) {
				return queue.NewService(queue.Config{Metrics: reg, MetricsName: id}), nil
			}
		}
		auto = shard.NewAutoscaler(router, shard.AutoscalerConfig{
			Policy: shard.AutoscalePolicy{
				MinShards:          minShards,
				MaxShards:          *autoMax,
				TargetRatePerShard: *autoTarget,
				SplitRate:          *splitThreshold,
			},
			Reserve: reserve,
			Factory: factory,
			Metrics: reg,
		})
		auto.Start()
		defer auto.Close()
		log.Printf("queuerouter: autoscaler enabled (min %d, reserve %d, local spawn %v)",
			minShards, len(reserve), factory != nil)
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("queuerouter: pprof enabled on /debug/pprof/")
	}
	mux.Handle("/admin/", &adminHandler{router: router, metrics: reg, auto: auto, followers: followers, transferToken: presentToken})
	qh := &queue.HTTPHandler{
		Service:     router,
		AdminTokens: tokens,
		SlowRequest: *slow,
		Metrics:     reg,
	}
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("queuerouter: -wire-addr: %v", err)
		}
		ws := &wire.Server{Service: router, AdminTokens: tokens, Metrics: reg}
		go func() {
			if err := ws.Serve(ln); err != nil && !errors.Is(err, wire.ErrServerClosed) {
				log.Fatalf("queuerouter: wire listener: %v", err)
			}
		}()
		qh.WireAddr = ln.Addr().String()
		log.Printf("queuerouter: wire protocol on %s", ln.Addr())
	}
	mux.Handle("/", qh)
	log.Printf("queuerouter: listening on %s with %d shard(s)", *addr, len(router.Shards()))
	if err := http.ListenAndServe(*addr, mux); err != nil {
		log.Fatal(err)
	}
}

// splitTokens decodes the comma-separated -transfer-token list, dropping
// empty entries.
func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
