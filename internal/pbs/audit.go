package pbs

import (
	"repro/internal/audit"
)

// Flight-recorder integration: state-delta events at every server
// mutation site, per-component state digests, and the online
// invariant engine. All of it is inert when no recorder is installed:
// the recorder handle is nil and every audit call is a nil-safe no-op.
//
// The engine has one set of check bodies — auditNodeLocked for the
// node-side invariants of one node, auditJobLocked for the job-side
// ones of one record, auditGlobalLocked for the two global identities
// — and two callers:
//
//   - auditCycleLocked, at every scheduler-cycle boundary (every
//     SchedInfoReq — the moment the scheduler reads the state it will
//     act on), runs them over the nodes touchLocked stamped since the
//     previous boundary and the jobs on the active list, and takes
//     the global identities from running counts. Its cost is O(nodes
//     touched + jobs active), whatever the table size or run length.
//   - The full sweep, fused into the walks digestJobs and digestNodes
//     make at every digest round, runs them over every indexed job and
//     every node, and recounts what the cycle engine only carries.
//
// Every production write to a node's ledger goes through
// refreshLocked or touchLocked, and every live job is on the active
// list, so a write through any mutation site is checked at the very
// next boundary; a write that bypasses them is caught by the next
// sweep, one digest interval later at most (DESIGN.md §8).
//
// Invariant names, mapped to the paper's Section III protocol state
// machine in EXPERIMENTS.md:
//
//	conservation.cores  per compute node: sum of per-job core grants
//	                    equals the node's used-core count and never
//	                    exceeds its capacity
//	conservation.acc    global: allocated + free accelerators equals
//	                    the accelerator inventory, and the job-side
//	                    claim count equals the node-side allocation
//	                    count
//	double-alloc        per accelerator: at most one owning job
//	view.node-jobs      a node's advertised job list mirrors its
//	                    usedBy ledger exactly
//	view.job-hosts      every host a live job claims (static hosts,
//	                    static accelerators, dynamic sets) holds a
//	                    matching usedBy entry, and every usedBy entry
//	                    belongs to a live job
//	jobs.index          every record is the one its id resolves to,
//	                    and the active list is strictly ascending in
//	                    sequence number (no job lost, duplicated or
//	                    recycled while the scheduler can still see it)
//	protocol.edge       a state was entered from one the §III tables
//	                    (protocol.go) do not allow; checked where the
//	                    state is written, not by a walk
//	jobs.count          the index holds exactly the jobs ever
//	                    submitted, less the terminal records the
//	                    retention window has purged (retention.go)
//
// KindJob events carry a transition label: those of the two §III
// machines are the label column of protocol.go's tables, these two
// belong to no state. KindAlloc and KindRelease events carry host as
// Subj, job id as Detail, cores as A, and (for allocations) B=1 when
// the grant is dynamic.
const (
	audDynFree      = "dyn-free"
	audSchedInfoCyc = "schedinfo"
)

// registerAudit resolves the flight recorder and registers the
// server's digest providers; called once from NewServer (the cluster
// installs the recorder on the simulation before daemons are built).
func (s *Server) registerAudit() {
	s.aud = s.net.Sim().Audit()
	s.aud.RegisterDigest("pbs", "pbs.jobs", s.digestJobs)
	s.aud.RegisterDigest("pbs", "pbs.nodes", s.digestNodes)
}

// acClass files an accelerator node under one term of the
// conservation identity allocated + free + down-and-free = inventory.
type acClass uint8

const (
	acUnfiled acClass = iota // a compute node, or an accelerator not examined yet
	acAllocated
	acFree
	acDownFree
)

// auditBooks is what the invariant engine carries from one boundary to
// the next, so that a boundary re-examines only what moved. It is
// written by the engine alone (never by a mutation site) and only when
// a recorder is installed.
type auditBooks struct {
	// acs counts the accelerators filed under each class; acs[acUnfiled]
	// stays zero. acTotal is the accelerators ever filed — the inventory.
	acs     [4]int64
	acTotal int64
	// seqSeen is the highest job sequence a boundary has looked at.
	seqSeen int
	// afterCycle, when set, runs under s.mu after each boundary's
	// checks (test hook: the verdict-equivalence test sweeps there).
	afterCycle func()
}

// digestJobs hashes the job database in submission order: id and
// lifecycle state only, so the sum is invariant across server modes
// (the sharded server may place the same jobs on different hosts, but
// must complete exactly the same set). The walk doubles as the
// job-side half of the full sweep; checks never feed the hash.
func (s *Server) digestJobs(d *audit.Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.digestJobsLocked(d)
}

func (s *Server) digestJobsLocked(d *audit.Digest) {
	// Bring the class counts up to the nodes touched since the last
	// boundary: the claims summed below are compared against them.
	s.auditTouchedLocked()
	claimed, resolved := int64(0), 0
	d.WriteInt(int64(len(s.order)))
	for _, ref := range s.order {
		d.WriteString(ref.id)
		j, ok := s.index.jobs[ref.id]
		if !ok {
			d.WriteInt(-1)
			continue
		}
		d.WriteInt(int64(j.info.State))
		d.WriteBool(j.info.Held)
		resolved++
		claimed += s.auditJobLocked(j, j.info.ID == ref.id)
	}
	// Only the sweep can see a record its id does not lead to (one
	// filed under another key): every id in the log resolves, but for
	// the purged ones retention has yet to compact.
	s.aud.Check("pbs", "jobs.index", "global", resolved+s.retired == len(s.order),
		int64(resolved+s.retired), int64(len(s.order)))
	s.auditGlobalLocked(claimed)
}

// digestNodes hashes the node database in registration order: name,
// capacity, usage, and the per-job grants (node order and each Jobs
// list are already deterministic — AddNode order and refreshLocked's
// sort). The walk doubles as the node-side half of the full sweep.
func (s *Server) digestNodes(d *audit.Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.digestNodesLocked(d)
}

func (s *Server) digestNodesLocked(d *audit.Digest) {
	drifted := int64(0)
	d.WriteInt(int64(len(s.table)))
	for _, n := range s.table {
		d.WriteString(n.info.Name)
		d.WriteInt(int64(n.info.Type))
		d.WriteInt(int64(n.info.Cores))
		d.WriteInt(int64(n.info.UsedCores))
		d.WriteBool(n.info.Down)
		d.WriteInt(int64(len(n.info.Jobs)))
		for _, id := range n.info.Jobs {
			d.WriteString(id)
			d.WriteInt(int64(n.usedBy[id]))
		}
		// Re-filing every node recounts the class counts. A node whose
		// class moved although nothing touched it since the last
		// boundary means the counts the cycle engine ran on were off.
		if s.auditNodeLocked(n) && n.gen <= s.gen {
			drifted++
		}
	}
	s.aud.Check("pbs", "conservation.acc", "global", drifted == 0, drifted, s.books.acTotal)
}

// auditCycleLocked is the invariant engine's per-cycle pass. It runs
// under s.mu at every scheduler-cycle boundary (handleSchedInfo), i.e.
// on exactly the state snapshot the scheduler is about to act on, in
// both server modes (the sharded router pins SchedInfoReq to shard 0
// and every handler serializes on s.mu, so the walk is race-free).
func (s *Server) auditCycleLocked() {
	a := s.aud
	if a == nil {
		return
	}
	s.auditTouchedLocked()

	// Every live job is on the active list, beside the terminal ones
	// compact has yet to drop. A live entry must sit in submission order
	// and be the record its id resolves to: one purged (and scrubbed for
	// reuse) before compact dropped the entry fails auditJobLocked's
	// lookup.
	claimed := int64(0)
	prev := -1
	for _, e := range s.index.active {
		if !e.j.live() {
			continue
		}
		a.Check("pbs", "jobs.index", e.j.info.ID, e.j.seq == e.seq && e.seq > prev, int64(e.seq), int64(prev))
		prev = e.seq
		claimed += s.auditJobLocked(e.j, false)
	}
	// Jobs submitted since the last boundary that are terminal already
	// (deleted while queued) never showed on an active list above.
	first := len(s.order)
	for first > 0 && s.order[first-1].seq > s.books.seqSeen {
		first--
	}
	for _, ref := range s.order[first:] {
		j, ok := s.index.jobs[ref.id]
		if ok && !j.live() {
			s.auditJobLocked(j, false)
		}
	}
	s.books.seqSeen = s.nextJob
	s.auditGlobalLocked(claimed)
	if s.books.afterCycle != nil {
		s.books.afterCycle()
	}
}

// auditTouchedLocked re-examines the nodes touched since the last
// boundary. Examining a node twice is harmless, so the sweep calls it
// too, between boundaries.
func (s *Server) auditTouchedLocked() {
	for _, i := range s.changed {
		s.auditNodeLocked(s.table[i])
	}
}

// auditNodeLocked checks the node-side invariants of one node — its
// view against its ledger, conservation or single ownership by type,
// and that every owner is a live job — and files an accelerator under
// its current conservation class. It reports whether the class moved.
func (s *Server) auditNodeLocked(n *serverNode) (moved bool) {
	a := s.aud
	name := n.info.Name
	used := 0
	mirrored := len(n.info.Jobs) == len(n.usedBy)
	for _, id := range n.info.Jobs {
		c, ok := n.usedBy[id]
		if !ok {
			mirrored = false
		}
		used += c
		// Reverse direction of view.job-hosts: the owner is a job the
		// index knows in a non-terminal state.
		j, ok := s.index.jobs[id]
		a.Check("pbs", "view.job-hosts", name, ok && j.live(), int64(jobSeq(id)), 1)
	}
	a.Check("pbs", "view.node-jobs", name, mirrored, int64(len(n.info.Jobs)), int64(len(n.usedBy)))
	switch n.info.Type {
	case ComputeNode:
		a.Check("pbs", "conservation.cores", name,
			used == n.info.UsedCores && n.info.UsedCores <= n.info.Cores,
			int64(used), int64(n.info.UsedCores))
	case AcceleratorNode:
		a.Check("pbs", "double-alloc", name, len(n.usedBy) <= 1, int64(len(n.usedBy)), 0)
		class := acFree
		switch {
		case len(n.usedBy) > 0:
			class = acAllocated
		case n.info.Down:
			class = acDownFree
		}
		if class != n.audClass {
			b := &s.books
			if n.audClass == acUnfiled {
				b.acTotal++
			} else {
				b.acs[n.audClass]--
			}
			b.acs[class]++
			n.audClass = class
			moved = true
		}
	}
	return moved
}

// auditJobLocked checks the job-side invariants of one indexed record:
// it is the record its id resolves to, and — forward
// direction of view.job-hosts — every host a running job claims holds
// a matching usedBy entry. It returns the accelerators the job holds,
// the job side of conservation.acc. byID says the caller has just
// resolved j by its own id, which is the check's lookup already made.
func (s *Server) auditJobLocked(j *serverJob, byID bool) (claimed int64) {
	id := j.info.ID
	s.aud.Check("pbs", "jobs.index", id, byID || s.index.jobs[id] == j, int64(j.seq), 0)
	if !j.live() {
		return 0
	}
	var buf [hostBuf]string
	for _, h := range appendHosts(buf[:0], j.info.Hosts, j.info.AccHosts, j.info.DynSets) {
		claimed += s.auditClaimLocked(j, h)
	}
	return claimed
}

// auditClaimLocked checks one host a live job names and reports 1 if
// it is an accelerator the job holds.
func (s *Server) auditClaimLocked(j *serverJob, host string) int64 {
	n, ok := s.nodes[host]
	held := ok && n.usedBy[j.info.ID] > 0
	if j.info.State == JobRunning {
		s.aud.Check("pbs", "view.job-hosts", host, held, int64(j.seq), 0)
	}
	if held && n.info.Type == AcceleratorNode {
		return 1
	}
	return 0
}

// auditGlobalLocked checks the two global identities against the
// accelerators the caller found claimed on the job side: over the
// active list at a boundary, over every indexed job in the sweep
// (terminal jobs claim nothing, so the two agree).
func (s *Server) auditGlobalLocked(claimed int64) {
	b := &s.books
	allocated, free := b.acs[acAllocated], b.acs[acFree]
	s.aud.Check("pbs", "conservation.acc", "global",
		allocated+free+b.acs[acDownFree] == b.acTotal && claimed == allocated,
		allocated+free, b.acTotal)
	// Retention purges index records but leaves their ids in the
	// submission-order log until it compacts; retired bridges the two.
	indexed := len(s.index.jobs)
	s.aud.Check("pbs", "jobs.count", "global", indexed+s.retired == len(s.order),
		int64(indexed+s.retired), int64(len(s.order)))
}
