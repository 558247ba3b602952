package pbs

// Test-only fault hooks. They mutate server state in ways the
// production handlers never do, so the audit invariant engine's
// true-positive paths can be exercised end to end. Living in an
// _test.go file, they are invisible to release builds.

// InjectGhostUseForTest force-adds an owner to a node's usedBy ledger
// without refreshing the node's public view — the raw material for
// double-allocation and view-divergence breaches.
func (s *Server) InjectGhostUseForTest(host, jobID string, cores int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.nodes[host]; ok {
		n.usedBy[jobID] = cores
	}
}

// InjectDropOrderForTest removes the most recent entry from the
// submission ledger while leaving the job index untouched — a "lost
// job" the jobs.count invariant must catch.
func (s *Server) InjectDropOrderForTest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) > 0 {
		s.order = s.order[:len(s.order)-1]
	}
}

// GenForTest reports the node-table generation the mirror holds.
func (m *NodeMirror) GenForTest() uint64 { return m.req.NodeGen }
