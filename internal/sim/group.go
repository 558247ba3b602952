package sim

// Group is the simulation-aware analogue of sync.WaitGroup for
// fork-join parallelism inside an actor: children spawned with Go are
// proper actors, and Wait parks the caller without stalling the
// virtual clock. Only actors touch it, so it takes no lock.
type Group struct {
	s    *Simulation
	gate *Gate
	n    int
}

// NewGroup returns an empty group.
func (s *Simulation) NewGroup(name string) *Group {
	return &Group{s: s, gate: s.NewGate("group:" + name)}
}

// Go runs fn as a child actor tracked by the group.
func (g *Group) Go(name string, fn func()) {
	g.n++
	g.s.Go(name, func() {
		defer func() {
			g.n--
			g.gate.Broadcast()
		}()
		fn()
	})
}

// Wait parks the caller until every child spawned so far has
// finished.
func (g *Group) Wait() {
	for g.n > 0 {
		g.gate.Wait(nil)
	}
}
