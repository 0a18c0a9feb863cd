package queue

import (
	"testing"
	"time"
)

// storeSizes exposes the per-queue index sizes so tests can assert that
// deleted messages are compacted out of every structure.
func (s *Service) storeSizes(name string) (visible, inflight, receipts int, err error) {
	q, err := s.getQueue(name)
	if err != nil {
		return 0, 0, 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.visible.Len(), q.inflight.Len(), len(q.byReceipt), nil
}

// setHTTPRequestTimeout shortens HTTPClient's per-request bound for the
// duration of a test.
func setHTTPRequestTimeout(t *testing.T, d time.Duration) {
	old := httpRequestTimeout
	httpRequestTimeout = d
	t.Cleanup(func() { httpRequestTimeout = old })
}
