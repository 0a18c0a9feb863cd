package harness

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/journal"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/telemetry"
)

// Shape names a deployment the benchmark assembles in one process.
type Shape string

const (
	// ShapeFull is the production path: broker → wire client → router →
	// two durable shards, each journaling write-ahead to a journal blob
	// store and tailed by a warm follower registered as its standby.
	ShapeFull Shape = "full"
	// ShapeWire is ShapeFull without durability: no journal store, no
	// followers. The difference between the two is the durability tax.
	ShapeWire Shape = "wire"
)

// Production settings the shapes copy from cmd/queuerouter and
// cmd/brokerd, spelled out here because those live in package main.
const (
	journalBucket  = "queue-journal"        // queuerouter -durable
	snapshotEvery  = 4096                   // queuerouter -snapshot-every
	followerPoll   = 250 * time.Millisecond // queuerouter -replicate without -health-interval
	targetDrain    = 30 * time.Second       // brokerd -target-drain
	wireConns      = 2                      // sized for nproc = 2
	tick           = 200 * time.Millisecond // brokerd -tick
	defaultVis     = time.Minute            // brokerd -visibility
	defaultWorkers = 2                      // brokerd -workers
)

// Stores are the blob stores of a deployment. They outlive a Stack so a
// killed deployment can be rebuilt over what it left behind. The
// registries are nil on untraced runs.
type Stores struct {
	Job, Journal       *blob.Store
	JobReg, JournalReg *telemetry.Registry
}

// NewStores creates the job store and, for ShapeFull, the journal
// store. With traced set each store self-measures into its own
// registry (the existing blob_op_ns histograms).
func NewStores(shape Shape, traced bool) *Stores {
	st := &Stores{}
	if traced {
		st.JobReg, st.JournalReg = telemetry.NewRegistry(), telemetry.NewRegistry()
	}
	st.Job = blob.NewStore(blob.Config{Metrics: st.JobReg})
	if shape == ShapeFull {
		st.Journal = blob.NewStore(blob.Config{Metrics: st.JournalReg})
	}
	return st
}

// Trace is the interposition points of a traced run. One Trace spans
// the generations of a restart workload, so spans of the killed and the
// recovered deployment land in the same recorders.
type Trace struct {
	Epoch  time.Time
	Wire   *Probe            // A: around the wire client
	Router *Probe            // B: around the router handed to the wire server
	Shards map[string]*Probe // C: around each shard backend
	App    *Recorder         // executor calls, via the broker registry
	Broker *Recorder         // broker HTTP client calls
}

// NewTrace creates the recorders of a traced run.
func NewTrace() *Trace {
	epoch := time.Now()
	return &Trace{
		Epoch:  epoch,
		Wire:   NewProbe("wire", "", epoch),
		Router: NewProbe("shard", "", epoch),
		Shards: make(map[string]*Probe),
		App:    NewRecorder("app", "", epoch),
		Broker: NewRecorder("broker", "", epoch),
	}
}

func (t *Trace) shardProbe(id string) *Probe {
	p, ok := t.Shards[id]
	if !ok {
		p = NewProbe("queue", id, t.Epoch)
		t.Shards[id] = p
	}
	return p
}

// StackConfig selects a deployment. Zero durations and counts mean the
// production default; anything else is an override the caller records
// in its result.
type StackConfig struct {
	Shape              Shape
	Visibility         time.Duration
	WorkersPerInstance int
	// Registry maps app names to executor factories (DefaultRegistry
	// when nil).
	Registry map[string]broker.ExecutorFactory
	// Stores to build over; nil creates fresh ones.
	Stores *Stores
	// Trace, when set, puts the interposers in and wires the blob
	// stores' registries; nil is the untraced program.
	Trace *Trace
}

// Stack is one assembled deployment.
type Stack struct {
	Stores *Stores
	Shards map[string]*queue.Service
	Router *shard.Router
	Broker *broker.Broker
	Client *broker.HTTPClient

	followers []*queue.Follower
	wireSrv   *wire.Server
	wireCli   *wire.Client
	httpSrv   *http.Server
	transport *http.Transport
}

// ShardLog names the journal a durable shard of a Stack writes, as
// queuerouter -durable names it.
func ShardLog(store *blob.Store, shardID string) journal.Log {
	return journal.Log{Store: store, Bucket: journalBucket, Key: "shard-" + shardID}
}

// ShardIDs returns the ids the benchmark registers its two shards
// under: "local0" as queuerouter names its first, and the first
// "localN" under which the ring puts the placement groups of the
// broker's first two jobs (job-0001, job-0002) on different shards — so
// a two-job workload loads both shards whatever the ring's hash is.
func ShardIDs() ([]string, error) {
	for n := 1; n < 64; n++ {
		ids := []string{"local0", fmt.Sprintf("local%d", n)}
		r := shard.NewRouter(shard.Config{})
		for _, id := range ids {
			if err := r.AddShard(id, queue.NewService(queue.Config{})); err != nil {
				r.Close()
				return nil, err
			}
		}
		for _, q := range []string{"job-0001/tasks", "job-0002/tasks"} {
			if err := r.CreateQueue(q); err != nil {
				r.Close()
				return nil, err
			}
		}
		owners := r.Owners()
		r.Close()
		if owners["job-0001/tasks"] != owners["job-0002/tasks"] {
			return ids, nil
		}
	}
	return nil, errors.New("harness: no shard id pair separates job-0001 from job-0002")
}

// Build assembles and starts a deployment the way cmd/queuerouter
// (-local 2 -durable -replicate -wire-addr) and cmd/brokerd assemble
// theirs.
func Build(cfg StackConfig) (*Stack, error) {
	if cfg.Visibility == 0 {
		cfg.Visibility = defaultVis
	}
	if cfg.WorkersPerInstance == 0 {
		cfg.WorkersPerInstance = defaultWorkers
	}
	if cfg.Stores == nil {
		cfg.Stores = NewStores(cfg.Shape, cfg.Trace != nil)
	}
	s := &Stack{Stores: cfg.Stores, Shards: make(map[string]*queue.Service)}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	ids, err := ShardIDs()
	if err != nil {
		return nil, err
	}
	s.Router = shard.NewRouter(shard.Config{})
	for i, id := range ids {
		qcfg := queue.Config{Seed: int64(i + 1)}
		if cfg.Shape == ShapeFull {
			log := ShardLog(s.Stores.Journal, id)
			qcfg.Durability = &queue.Durability{
				Store: log.Store, Bucket: log.Bucket, Key: log.Key, SnapshotEvery: snapshotEvery,
			}
		}
		svc := queue.NewService(qcfg)
		if cfg.Shape == ShapeFull {
			if err := svc.Recover(); err != nil {
				return nil, fmt.Errorf("harness: recover shard %s: %w", id, err)
			}
		}
		s.Shards[id] = svc
		var backend queue.API = svc
		if cfg.Trace != nil {
			if backend, err = Wrap(svc, cfg.Trace.shardProbe(id)); err != nil {
				return nil, err
			}
		}
		if err := s.Router.AddShard(id, backend); err != nil {
			return nil, err
		}
		if cfg.Shape == ShapeFull {
			f, err := queue.NewFollower(qcfg)
			if err != nil {
				return nil, err
			}
			f.Start(followerPoll)
			s.followers = append(s.followers, f)
			if err := s.Router.SetStandby(id, f.PromoteAPI); err != nil {
				return nil, err
			}
		}
	}

	var served queue.API = s.Router
	if cfg.Trace != nil {
		if served, err = Wrap(s.Router, cfg.Trace.Router); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.wireSrv = &wire.Server{Service: served}
	go func() { _ = s.wireSrv.Serve(ln) }() // returns ErrServerClosed on Close
	s.wireCli = wire.Dial(ln.Addr().String(), wire.Options{Conns: wireConns})
	var envQueue queue.API = s.wireCli
	if cfg.Trace != nil {
		if envQueue, err = Wrap(s.wireCli, cfg.Trace.Wire); err != nil {
			return nil, err
		}
	}

	prices := append(cloud.EC2Catalog(), cloud.AzureCatalog()...)
	cal, err := catalog.Open(catalog.Config{Store: s.Stores.Job, Prices: prices})
	if err != nil {
		return nil, err
	}
	s.Broker = broker.New(broker.Config{
		Env:      classiccloud.Env{Blob: s.Stores.Job, Queue: envQueue},
		Registry: cfg.Registry,
		// A fixed fleet per job: the load is closed-loop with a known
		// worker count. Jobs repeat the policy in their requests.
		Autoscale:          broker.AutoscalePolicy{MinInstances: 1, MaxInstances: 1, TargetDrain: targetDrain},
		WorkersPerInstance: cfg.WorkersPerInstance,
		VisibilityTimeout:  cfg.Visibility,
		TickInterval:       tick,
		Calibration:        cal,
		Replan:             broker.ReplanPolicy{Enabled: true},
	})

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: &broker.HTTPHandler{Broker: s.Broker}}
	go func() { _ = s.httpSrv.Serve(hln) }() // returns ErrServerClosed on Close
	s.transport = &http.Transport{MaxIdleConnsPerHost: 2}
	s.Client = &broker.HTTPClient{
		BaseURL: "http://" + hln.Addr().String(), Client: &http.Client{Transport: s.transport},
	}
	ok = true
	return s, nil
}

// Close shuts the deployment down in order: jobs and fleets first, then
// the listeners and background loops.
func (s *Stack) Close() {
	if s.Broker != nil {
		s.Broker.Close()
	}
	s.closeTransports()
}

// Kill stops the deployment the way a crash would: the broker and every
// shard are halted mid-operation, nothing is journaled on the way out,
// and only the blob stores survive.
func (s *Stack) Kill() {
	for _, svc := range s.Shards {
		svc.Halt()
	}
	if s.Broker != nil {
		s.Broker.Halt()
	}
	s.closeTransports()
}

func (s *Stack) closeTransports() {
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if s.wireCli != nil {
		_ = s.wireCli.Close()
	}
	if s.wireSrv != nil {
		_ = s.wireSrv.Close()
	}
	for _, f := range s.followers {
		f.Close()
	}
	if s.Router != nil {
		s.Router.Close()
	}
}
