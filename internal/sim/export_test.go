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

// SetHooksForTest installs the kernel's scheduling seams until the
// returned restore runs: check sees the running count at every park
// and resume of a live run, and resume runs on every actor as it starts
// and after every wake.
func SetHooksForTest(check func(running int), resume func()) (restore func()) {
	slotHook = func(s *Simulation) {
		if !s.halted {
			check(s.running)
		}
	}
	resumeHook = resume
	return func() { slotHook, resumeHook = nil, nil }
}

// Halted reports whether Run has returned.
func (s *Simulation) Halted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.halted
}
