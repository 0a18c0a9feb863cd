package queue

// storeSizes exposes the per-queue index sizes so tests can assert that
// deleted messages are compacted out of every structure.
func (s *Service) storeSizes(name string) (visible, inflight, ids int, err error) {
	q, err := s.getQueue(name)
	if err != nil {
		return 0, 0, 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.visible.Len(), q.inflight.Len(), len(q.byID), nil
}
