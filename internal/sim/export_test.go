package sim

// parkCount reports how many times an actor of s has parked, in Sleep
// or on a Gate. The kernel keeps the count for the tests alone: it is
// how they tell a sleep that advanced the clock in place from one that
// went through the queue.
func (s *Simulation) parkCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parks
}
