package sim

// parkCount reports how many times an actor of s has parked, in Sleep
// or on a Gate. The kernel keeps the count for the tests alone: it is
// how they tell a sleep that advanced the clock in place from one that
// went through the queue.
// Read it from an actor or around Run, through the slot.
func (s *Simulation) parkCount() uint64 {
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

// Halted reports whether Run has returned. Read it around Run or from
// an actor.
func (s *Simulation) Halted() bool {
	return s.halted
}
