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
		j := s.index.jobs[jobID]
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
		j := s.index.jobs[jobID]
		j.info.Hosts = append(slices.Clip(j.info.Hosts), host)
		return nil
	}
}

// MisfileFault refiles a job's record under a key its id does not
// resolve to, leaving the index the same size.
func MisfileFault(jobID string) Fault {
	return func(s *Server) *serverNode {
		s.index.jobs[jobID+"'"] = s.index.jobs[jobID]
		delete(s.index.jobs, jobID)
		return nil
	}
}

// EdgeFault moves a job to a state the way a handler would, through
// advanceJobLocked, whatever state it is in. An edge the table lacks is
// flagged there; the panic that follows under test is swallowed, so the
// run goes on and the breach can be read.
func EdgeFault(jobID string, to JobState) Fault {
	return func(s *Server) *serverNode {
		defer func() { _ = recover() }()
		j := s.index.jobs[jobID]
		s.advanceJobLocked(j, to, 0)
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

// GenForTest reports the view generation the mirror holds.
func (m *Mirror) GenForTest() uint64 { return m.req.Gen }

// PhasesForTest reports the server's counts of queued and running jobs.
func (s *Server) PhasesForTest() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phases[PhaseQueued], s.phases[PhaseRunning]
}

// HostsForTest returns the very list the mom holds as the job's host
// set, not a copy (nil when it does not know the job).
func (m *Mom) HostsForTest(jobID string) []string {
	if j, ok := m.jobs[jobID]; ok {
		return j.hosts
	}
	return nil
}

// TableEdgesForTest names every edge the two tables of protocol.go hold.
func TableEdgesForTest() []string {
	var out []string
	for _, from := range []int{unborn, 0, 1, 2, 3, 4} {
		for to := range jobRules {
			if jobRules[to].from.has(from) {
				out = append(out, edgeName(true, from, to))
			}
		}
		for to := range dynRules {
			if dynRules[to].from.has(from) {
				out = append(out, edgeName(false, from, to))
			}
		}
	}
	return out
}

// WatchEdgesForTest hands fn the name of every edge any server of the
// process takes, from any actor, until stop is called.
func WatchEdgesForTest(fn func(edge string)) (stop func()) {
	h := func(job bool, from, to int) { fn(edgeName(job, from, to)) }
	edgeHook.Store(&h)
	return func() { edgeHook.Store(nil) }
}

// TryEdgeForTest takes one edge of one machine on a scratch record —
// one the server's books hold, unless from is negative: a new record —
// and reports the edge's name and whether advance refused it (it panics
// under test).
func (s *Server) TryEdgeForTest(job bool, from, to int) (edge string, refused bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { refused = recover() != nil }()
	born := from < 0
	if born {
		from = unborn
	}
	edge = edgeName(job, from, to)
	if job {
		j := &serverJob{seq: 1, info: JobInfo{ID: "1.scratch"}}
		if !born {
			j.info.State = JobState(from)
			s.index.jobs[j.info.ID] = j
			defer delete(s.index.jobs, j.info.ID)
		}
		s.advanceJobLocked(j, JobState(to), 0)
		return edge, false
	}
	rec := &DynRecord{ReqID: 1, JobID: "1.scratch"}
	if !born {
		rec.State = DynState(from)
		s.dynReply[rec.ReqID] = dynReplyTo{ep: "scratch"}
		defer delete(s.dynReply, rec.ReqID)
	}
	s.advanceDynLocked(rec, DynState(to), 0)
	return edge, false
}

// ActiveForTest compacts the active list as a purge does, then walks
// it: visited are the sequence numbers on it, in order; live are those
// of the live jobs as the submission log and the map know them.
func (s *Server) ActiveForTest() (visited, live []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.compact()
	for _, e := range s.index.active {
		visited = append(visited, e.seq)
	}
	for _, ref := range s.order {
		if j, ok := s.index.jobs[ref.id]; ok && j.live() {
			live = append(live, ref.seq)
		}
	}
	return visited, live
}
