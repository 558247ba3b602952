package pbs

import (
	"slices"

	"repro/internal/audit"
)

// Test-only fault hooks. They mutate server state in ways the
// production handlers never do, so the audit invariant engine's
// true-positive paths can be exercised end to end. Living in an
// _test.go file, they are invisible to release builds.

// Fault is one corruption of the server's books. It runs under the
// server's lock and returns the node it wrote, if it wrote one.
type Fault func(s *Server) *serverNode

// InjectForTest applies a fault. With touch the node it wrote is
// stamped the way every production write stamps it (touchLocked), so
// the cycle engine re-examines it at the next boundary; without, the
// write is invisible until a digest round's sweep.
func (s *Server) InjectForTest(f Fault, touch bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := f(s); n != nil && touch {
		s.touchLocked(n)
	}
}

// LedgerFault adds an owner to a node's usedBy ledger and leaves the
// node's advertised view as it was.
func LedgerFault(host, jobID string, cores int) Fault {
	return func(s *Server) *serverNode {
		n := s.nodes[host]
		n.usedBy[jobID] = cores
		return n
	}
}

// OwnerFault adds an owner to a node's ledger and view alike — what
// refreshLocked would leave, less its stamp — without telling the job.
func OwnerFault(host, jobID string, cores int) Fault {
	return func(s *Server) *serverNode {
		n := s.nodes[host]
		n.usedBy[jobID] = cores
		n.info.Jobs = append(n.info.Jobs, jobID)
		if n.info.Type == ComputeNode {
			n.info.UsedCores += cores
		}
		return n
	}
}

// DisownFault undoes OwnerFault.
func DisownFault(host, jobID string) Fault {
	return func(s *Server) *serverNode {
		n := s.nodes[host]
		if n.info.Type == ComputeNode {
			n.info.UsedCores -= n.usedBy[jobID]
		}
		delete(n.usedBy, jobID)
		n.info.Jobs = slices.DeleteFunc(n.info.Jobs, func(id string) bool { return id == jobID })
		return n
	}
}

// ShareFault makes a second live job a full owner of an accelerator:
// ledger, view and the job's own dynamic sets all say so.
func ShareFault(host, jobID string) Fault {
	return func(s *Server) *serverNode {
		j, _ := s.index.get(jobID)
		if j.info.DynSets == nil {
			j.info.DynSets = make(map[int][]string)
		}
		j.info.DynSets[99] = []string{host}
		return OwnerFault(host, jobID, 1)(s)
	}
}

// UsedCoresFault overwrites a node's advertised used-core count.
func UsedCoresFault(host string, used int) Fault {
	return func(s *Server) *serverNode {
		n := s.nodes[host]
		n.info.UsedCores = used
		return n
	}
}

// PhantomHostFault makes a job list a host it holds nothing on.
func PhantomHostFault(jobID, host string) Fault {
	return func(s *Server) *serverNode {
		j, _ := s.index.get(jobID)
		j.info.Hosts = append(slices.Clip(j.info.Hosts), host)
		return nil
	}
}

// MisfileFault refiles a job's record under a key its id does not
// resolve to, leaving the index the same size.
func MisfileFault(jobID string) Fault {
	return func(s *Server) *serverNode {
		p := s.index.partFor(jobSeq(jobID))
		p.jobs[jobID+"'"] = p.jobs[jobID]
		delete(p.jobs, jobID)
		return nil
	}
}

// DropOrderFault removes the most recent entry from the submission
// ledger while leaving the job index untouched — a "lost job".
func DropOrderFault() Fault {
	return func(s *Server) *serverNode {
		s.order = s.order[:len(s.order)-1]
		return nil
	}
}

// ShadowSweepForTest makes every cycle boundary follow the engine's
// incremental pass with the full sweep, on the same state under the
// same lock hold, and hands fn the breaches each of the two recorded.
func (s *Server) ShadowSweepForTest(rec *audit.Recorder, fn func(cycle, sweep []audit.Event)) {
	var got []audit.Event
	rec.OnBreach(func(e audit.Event) {
		if e.Comp == "pbs" { // recorded under s.mu, like the hook below
			got = append(got, e)
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.books.afterCycle = func() {
		cycle := got
		got = nil
		s.digestJobsLocked(new(audit.Digest))
		s.digestNodesLocked(new(audit.Digest))
		fn(cycle, got)
		got = nil
	}
}

// GenForTest reports the node-table generation the mirror holds.
func (m *NodeMirror) GenForTest() uint64 { return m.req.NodeGen }

// HostsForTest returns the very list the mom holds as the job's host
// set, not a copy (nil when it does not know the job).
func (m *Mom) HostsForTest(jobID string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[jobID]; ok {
		return j.hosts
	}
	return nil
}
