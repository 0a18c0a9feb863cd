package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
)

// benchStore abstracts the indexed Service and the legacy global-mutex
// implementation so the contention and dead-backlog benchmarks can run
// both under identical load.
type benchStore interface {
	CreateQueue(name string) error
	SendMessage(name string, body []byte) (string, error)
	ReceiveMessage(name string, vis time.Duration) (Message, bool, error)
	DeleteMessage(name, receipt string) error
	ChangeVisibility(name, receipt string, d time.Duration) error
	ApproximateCount(name string) (int, int, error)
}

// ---------------------------------------------------------------------------
// Legacy implementation: the pre-index queue core. One service-wide
// mutex, a slice scan per receive/delete, deleted entries never
// compacted. Kept here (test-only) as the benchmark baseline the
// indexed rewrite is measured against.
// ---------------------------------------------------------------------------

type legacyService struct {
	mu     sync.Mutex
	queues map[string]*legacyQueue
	window int
	clock  Clock
	seq    int
}

type legacyQueue struct {
	name     string
	messages []*legacyMessage
	nextID   int
}

type legacyMessage struct {
	id        string
	body      []byte
	visibleAt time.Time
	receives  int
	receipt   string
	deleted   bool
}

func newLegacyService() *legacyService {
	return &legacyService{queues: make(map[string]*legacyQueue), window: 4, clock: RealClock{}}
}

func (s *legacyService) CreateQueue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queues[name] = &legacyQueue{name: name}
	return nil
}

func (s *legacyService) SendMessage(name string, body []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return "", ErrNoSuchQueue
	}
	q.nextID++
	m := &legacyMessage{id: fmt.Sprintf("%s-%d", name, q.nextID), body: append([]byte(nil), body...)}
	q.messages = append(q.messages, m)
	return m.id, nil
}

func (s *legacyService) ReceiveMessage(name string, vis time.Duration) (Message, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return Message{}, false, ErrNoSuchQueue
	}
	now := s.clock.Now()
	var candidates []*legacyMessage
	for _, m := range q.messages {
		if m.deleted || m.visibleAt.After(now) {
			continue
		}
		candidates = append(candidates, m)
		if len(candidates) >= s.window {
			break
		}
	}
	if len(candidates) == 0 {
		return Message{}, false, nil
	}
	s.seq++
	m := candidates[s.seq%len(candidates)]
	m.receives++
	m.receipt = fmt.Sprintf("%s#r%d", m.id, m.receives)
	m.visibleAt = now.Add(vis)
	return Message{ID: m.id, Body: append([]byte(nil), m.body...), ReceiptHandle: m.receipt, Receives: m.receives}, true, nil
}

func (s *legacyService) DeleteMessage(name, receipt string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return ErrNoSuchQueue
	}
	for _, m := range q.messages {
		if !m.deleted && m.receipt == receipt {
			m.deleted = true
			return nil
		}
	}
	return ErrStaleReceipt
}

// seedDead bulk-loads n already-deleted messages, so benchmarks can set
// up the legacy graveyard without paying its own quadratic API cost.
func (s *legacyService) seedDead(name string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	for i := 0; i < n; i++ {
		q.nextID++
		q.messages = append(q.messages, &legacyMessage{
			id: fmt.Sprintf("%s-%d", name, q.nextID), deleted: true,
		})
	}
}

func (s *legacyService) ChangeVisibility(name, receipt string, d time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return ErrNoSuchQueue
	}
	for _, m := range q.messages {
		if !m.deleted && m.receipt == receipt {
			m.visibleAt = s.clock.Now().Add(d)
			return nil
		}
	}
	return ErrStaleReceipt
}

func (s *legacyService) ApproximateCount(name string) (int, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return 0, 0, ErrNoSuchQueue
	}
	now := s.clock.Now()
	visible, inflight := 0, 0
	for _, m := range q.messages {
		if m.deleted {
			continue
		}
		if m.visibleAt.After(now) {
			inflight++
		} else {
			visible++
		}
	}
	return visible, inflight, nil
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

// seedDeadMessages puts n sent-received-deleted messages in a queue's
// history. The legacy store is bulk-loaded (its own API is quadratic in
// the graveyard size); the indexed store goes through the public API,
// which compacts every deletion immediately.
func seedDeadMessages(b *testing.B, s benchStore, name string, n int) {
	b.Helper()
	if ls, ok := s.(*legacyService); ok {
		ls.seedDead(name, n)
		return
	}
	for i := 0; i < n; i++ {
		if _, err := s.SendMessage(name, []byte("dead")); err != nil {
			b.Fatal(err)
		}
		m, ok, err := s.ReceiveMessage(name, time.Hour)
		if err != nil || !ok {
			b.Fatal("seeding receive failed")
		}
		if err := s.DeleteMessage(name, m.ReceiptHandle); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStores() map[string]func() benchStore {
	return map[string]func() benchStore{
		"indexed":     func() benchStore { return NewService(Config{Seed: 1}) },
		"globalmutex": func() benchStore { return newLegacyService() },
	}
}

// BenchmarkQueueThroughput measures a single queue's send → receive →
// delete cycle from one goroutine: the floor the per-queue indexes set
// before any parallelism.
func BenchmarkQueueThroughput(b *testing.B) {
	for name, mk := range benchStores() {
		b.Run(name, func(b *testing.B) {
			s := mk()
			s.CreateQueue("q")
			body := []byte("task payload")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SendMessage("q", body); err != nil {
					b.Fatal(err)
				}
				m, ok, err := s.ReceiveMessage("q", time.Hour)
				if err != nil || !ok {
					b.Fatal("receive failed")
				}
				if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkQueueContention is the multi-tenant shape the broker
// produces: 8 queues (jobs) × 8 workers each, every worker running the
// full send/receive/delete cycle against its own queue. Per-queue
// locking lets the tenants proceed independently; the global-mutex
// baseline serializes all 64 workers.
func BenchmarkQueueContention(b *testing.B) {
	const queues = 8
	const workersPerQueue = 8
	for name, mk := range benchStores() {
		b.Run(name, func(b *testing.B) {
			s := mk()
			for qi := 0; qi < queues; qi++ {
				s.CreateQueue(fmt.Sprintf("q%d", qi))
			}
			body := []byte("task payload")
			workers := queues * workersPerQueue
			cycles := b.N/workers + 1
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for qi := 0; qi < queues; qi++ {
				qn := fmt.Sprintf("q%d", qi)
				for w := 0; w < workersPerQueue; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < cycles; i++ {
							if _, err := s.SendMessage(qn, body); err != nil {
								b.Error(err)
								return
							}
							m, ok, err := s.ReceiveMessage(qn, time.Hour)
							if err != nil {
								b.Error(err)
								return
							}
							if ok {
								if err := s.DeleteMessage(qn, m.ReceiptHandle); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}()
				}
			}
			wg.Wait()
			b.ReportMetric(float64(workers*cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkQueueReceiveDeadBacklog measures ReceiveMessage on a queue
// whose history holds 100k deleted messages and 100 live ones. The
// indexed store compacts deletions out, so its cost tracks the live
// count; the legacy scan walks the graveyard on every call.
func BenchmarkQueueReceiveDeadBacklog(b *testing.B) {
	const dead = 100_000
	const live = 100
	for name, mk := range benchStores() {
		b.Run(name, func(b *testing.B) {
			s := mk()
			s.CreateQueue("q")
			seedDeadMessages(b, s, "q", dead)
			for i := 0; i < live; i++ {
				if _, err := s.SendMessage("q", []byte("live")); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			// Steady state: receive a live message, then release it back
			// to the visible pool so the live population stays at 100.
			for i := 0; i < b.N; i++ {
				m, ok, err := s.ReceiveMessage("q", time.Hour)
				if err != nil || !ok {
					b.Fatal("receive found nothing despite live messages")
				}
				if err := s.ChangeVisibility("q", m.ReceiptHandle, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueueApproximateCount measures the autoscaler's observation
// call on the same dead-backlog shape: maintained counters versus a
// full-history scan.
func BenchmarkQueueApproximateCount(b *testing.B) {
	const dead = 100_000
	for name, mk := range benchStores() {
		b.Run(name, func(b *testing.B) {
			s := mk()
			s.CreateQueue("q")
			seedDeadMessages(b, s, "q", dead)
			for i := 0; i < 100; i++ {
				s.SendMessage("q", []byte("live"))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.ApproximateCount("q"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueueBatchRoundTrip compares per-message and batched API use
// for the same 10-message workload — the request-count (and therefore
// cost-model) difference, not just CPU.
func BenchmarkQueueBatchRoundTrip(b *testing.B) {
	bodies := make([][]byte, MaxBatch)
	for i := range bodies {
		bodies[i] = []byte("task payload")
	}
	b.Run("single", func(b *testing.B) {
		s := NewService(Config{Seed: 1})
		s.CreateQueue("q")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				s.SendMessage("q", body)
			}
			for range bodies {
				m, ok, err := s.ReceiveMessage("q", time.Hour)
				if err != nil || !ok {
					b.Fatal("receive failed")
				}
				if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(s.APIRequests())/float64(b.N), "requests/roundtrip")
	})
	b.Run("batch", func(b *testing.B) {
		s := NewService(Config{Seed: 1})
		s.CreateQueue("q")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SendMessageBatch("q", bodies); err != nil {
				b.Fatal(err)
			}
			msgs, err := s.ReceiveMessageBatch("q", time.Hour, MaxBatch, 0)
			if err != nil || len(msgs) != MaxBatch {
				b.Fatalf("batch receive: %d err=%v", len(msgs), err)
			}
			receipts := make([]string, len(msgs))
			for j, m := range msgs {
				receipts[j] = m.ReceiptHandle
			}
			if _, err := s.DeleteMessageBatch("q", receipts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.APIRequests())/float64(b.N), "requests/roundtrip")
	})
}

// durableBenchService is a recovered durable service over a fresh store
// with one queue, compacting at the default cadence so the log — and the
// blob store's cost of growing it — stays bounded as in production.
func durableBenchService(b *testing.B) (*Service, Config) {
	b.Helper()
	cfg := Config{Seed: 1, Durability: &Durability{
		Store: blob.NewStore(blob.Config{}), Bucket: "j", Key: "bench",
	}}
	s := NewService(cfg)
	if err := s.Recover(); err != nil {
		b.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		b.Fatal(err)
	}
	return s, cfg
}

// benchBodies are MaxBatch task-descriptor-sized message bodies.
func benchBodies() [][]byte {
	bodies := make([][]byte, MaxBatch)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"id":"t%04d","input":"in/file-%04d.fa","output":"out/file-%04d.fa"}`, i, i, i))
	}
	return bodies
}

// durableRoundTrip is the benchmarks' unit of work: one 10-message
// send, receive and delete — three journal records.
func durableRoundTrip(b *testing.B, s *Service, bodies [][]byte, receipts []string) {
	if _, err := s.SendMessageBatch("q", bodies); err != nil {
		b.Fatal(err)
	}
	msgs, err := s.ReceiveMessageBatch("q", time.Hour, MaxBatch, 0)
	if err != nil || len(msgs) != MaxBatch {
		b.Fatalf("batch receive: %d err=%v", len(msgs), err)
	}
	for j, m := range msgs {
		receipts[j] = m.ReceiptHandle
	}
	if _, err := s.DeleteMessageBatch("q", receipts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueDurableAppend measures the write side of durability:
// encoding and appending the send/receive/delete records of a
// 10-message round trip on top of the queue work itself (compare
// BenchmarkQueueBatchRoundTrip/batch, the same work unjournaled).
func BenchmarkQueueDurableAppend(b *testing.B) {
	s, _ := durableBenchService(b)
	bodies, receipts := benchBodies(), make([]string, MaxBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		durableRoundTrip(b, s, bodies, receipts)
	}
	b.StopTimer()
	in := s.dur.log.Store.Usage()
	b.ReportMetric(float64(in.BytesIn)/float64(in.PutRequests), "journal_B/append")
}

// BenchmarkQueueFollowerFold measures the read side: a standby folding
// the three records of each round trip out of the primary's journal
// tail (Head poll, range read, frame walk, decode, fold), and once per
// snapshot epoch rebuilding from the primary's snapshot.
func BenchmarkQueueFollowerFold(b *testing.B) {
	s, cfg := durableBenchService(b)
	f, err := NewFollower(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.CatchUp(); err != nil {
		b.Fatal(err)
	}
	bodies, receipts := benchBodies(), make([]string, MaxBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		durableRoundTrip(b, s, bodies, receipts)
		b.StartTimer()
		if _, err := f.CatchUp(); err != nil {
			b.Fatal(err)
		}
	}
}
