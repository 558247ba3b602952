package pbs

import (
	"reflect"
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
	if n := f(s); n != nil && touch {
		s.touchLocked(n)
	}
}

// LedgerFault adds an owner to a node's ledger of holds and leaves the
// node's advertised view as it was.
func LedgerFault(host, jobID string, cores int) Fault {
	return func(s *Server) *serverNode {
		n := s.nodes[host]
		n.hold(jobID, cores)
		return n
	}
}

// OwnerFault adds an owner to a node's ledger and view alike — what
// refreshLocked would leave, less its stamp — without telling the job.
func OwnerFault(host, jobID string, cores int) Fault {
	return func(s *Server) *serverNode {
		n := s.nodes[host]
		n.hold(jobID, cores)
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
		c, _ := n.drop(jobID)
		if n.info.Type == ComputeNode {
			n.info.UsedCores -= c
		}
		n.info.Jobs = slices.DeleteFunc(n.info.Jobs, func(id string) bool { return id == jobID })
		return n
	}
}

// ShareFault makes a second live job a full owner of an accelerator:
// ledger, view and the job's own dynamic sets all say so.
func ShareFault(host, jobID string) Fault {
	return func(s *Server) *serverNode {
		j := s.index.find(jobID)
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
		j := s.index.find(jobID)
		j.info.Hosts = append(slices.Clip(j.info.Hosts), host)
		return nil
	}
}

// MisfileFault refiles a job's record under an id that is not its own:
// its log entry keeps the record and takes another name, leaving the
// log the same size.
func MisfileFault(jobID string) Fault {
	return func(s *Server) *serverNode {
		s.index.entry(jobSeq(jobID)).id = jobID + "'"
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
		j := s.index.find(jobID)
		s.advanceJobLocked(j, to, 0)
		return nil
	}
}

// DropOrderFault removes the oldest entry from the job log behind the
// back of the counts kept beside it — a "lost job". Every scene that
// uses it submitted a job that has ended by then first, so the record
// lost is on no active list.
func DropOrderFault() Fault {
	return func(s *Server) *serverNode {
		s.index.log = s.index.log[1:]
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
	s.books.afterCycle = func() {
		cycle := got
		got = nil
		s.digestJobs(new(audit.Digest))
		s.digestNodes(new(audit.Digest))
		fn(cycle, got)
		got = nil
	}
}

// ClaimsForTest walks the claims of every live job on the active list
// the way the invariant engine does and reports how many resolved
// through the job's own nodes, how many by name, and how many of the
// first are not the record the name map holds under that name.
func (s *Server) ClaimsForTest() (viaNodes, byName, wrong int) {
	for _, e := range s.index.active {
		j := e.j
		if !j.live() {
			continue
		}
		next := 0
		for _, h := range appendHosts(nil, j.info.Hosts, j.info.AccHosts, j.info.DynSets) {
			k := next
			n := s.claimNode(j, &next, h)
			switch {
			case next == k:
				byName++
			case n != s.nodes[h]:
				viaNodes++
				wrong++
			default:
				viaNodes++
			}
		}
	}
	return viaNodes, byName, wrong
}

// RehashJobsForTest computes the pbs.jobs digest from scratch, keeping
// nothing between rounds: every logged id is hashed again.
func (s *Server) RehashJobsForTest(d *audit.Digest) {
	var sum uint64
	for _, ref := range s.index.log {
		var h audit.Digest
		h.WriteString(ref.id)
		if ref.j == nil {
			h.WriteInt(-1)
		} else {
			h.WriteInt(int64(ref.j.info.State))
			h.WriteBool(ref.j.info.Held)
		}
		sum += h.Sum()
	}
	d.WriteInt(int64(len(s.index.log)))
	d.WriteUint(sum)
}

// GenForTest reports the view generation the mirror holds.
func (m *Mirror) GenForTest() uint64 { return m.req.Gen }

// PhasesForTest reports the server's counts of queued and running jobs.
func (s *Server) PhasesForTest() (queued, running int) {
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
	defer func() { refused = recover() != nil }()
	born := from < 0
	if born {
		from = unborn
	}
	edge = edgeName(job, from, to)
	if job {
		j := &serverJob{seq: s.nextJob + 1, info: JobInfo{ID: "scratch"}}
		if !born {
			j.info.State = JobState(from)
			n := len(s.index.log)
			s.index.log = append(s.index.log, jobRef{seq: j.seq, id: j.info.ID, j: j})
			defer func() { s.index.log = s.index.log[:n] }()
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
// of the live jobs as the log knows them.
func (s *Server) ActiveForTest() (visited, live []int) {
	s.index.compact()
	for _, e := range s.index.active {
		visited = append(visited, e.seq)
	}
	for _, ref := range s.index.log {
		if j := ref.j; j != nil && j.live() {
			live = append(live, ref.seq)
		}
	}
	return visited, live
}

// FreeForTest lists the records on every free list of the server, the
// moms and the clients, as addresses, by "owner.list".
func FreeForTest(s *Server, moms []*Mom, clients []*Client) map[string][]uintptr {
	free := make(map[string][]uintptr)
	walk := func(owner string, lists ...any) {
		for _, l := range lists {
			list := reflect.ValueOf(l).Elem()
			recs := list.FieldByName("recs")
			for k := 0; k < recs.Len(); k++ {
				name := owner + "." + list.Type().String()
				free[name] = append(free[name], recs.Index(k).Pointer())
			}
		}
	}
	walk("server", append(slices.Clone(s.out), &s.answers)...)
	for _, m := range moms {
		walk(m.host, m.out...)
	}
	for _, c := range clients {
		walk(c.addr, c.out...)
	}
	return free
}

// HeldForTest lists the records the mom holds, as addresses: the request
// of every op awaiting an ack and every job it has joined.
func (m *Mom) HeldForTest() []uintptr {
	var held []uintptr
	for _, op := range m.waits {
		held = append(held, reflect.ValueOf(op.req).Pointer())
	}
	for _, j := range m.jobs {
		held = append(held, reflect.ValueOf(j).Pointer())
	}
	return held
}
