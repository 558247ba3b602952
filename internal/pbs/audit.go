package pbs

import (
	"repro/internal/audit"
)

// Flight-recorder integration: state-delta events at every server
// mutation site, per-component state digests, and the online
// invariant engine run at scheduler-cycle boundaries (every
// SchedInfoReq — the moment the scheduler reads the state it will
// act on). All of it is inert when no recorder is installed: the
// recorder handle is nil and every audit call is a nil-safe no-op.
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
//	jobs.partition      every job sits in the index partition its
//	                    sequence number maps to, and every active id
//	                    resolves in its partition (no job lost or
//	                    duplicated across queue/index/partition moves)
//	jobs.count          the index holds exactly the jobs ever
//	                    submitted, less the terminal records the
//	                    retention window has purged (retention.go)
//
// Transition labels recorded with KindJob events. KindAlloc and
// KindRelease events carry host as Subj, job id as Detail, cores as
// A, and (for allocations) B=1 when the grant is dynamic.
const (
	audSubmit       = "submit"
	audQueuedToRun  = "queued->running"
	audRunToDone    = "running->completed"
	audToDeleted    = "->deleted"
	audToFailed     = "->failed"
	audDynQueued    = "dyn-queued"
	audDynSched     = "dyn-scheduling"
	audDynForward   = "dyn-forwarding"
	audDynGranted   = "dyn-granted"
	audDynRejected  = "dyn-rejected"
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

// digestJobs hashes the job database in submission order: id and
// lifecycle state only, so the sum is invariant across server modes
// (the sharded server may place the same jobs on different hosts, but
// must complete exactly the same set).
func (s *Server) digestJobs(d *audit.Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d.WriteInt(int64(len(s.order)))
	for _, id := range s.order {
		j, ok := s.index.get(id)
		if !ok {
			d.WriteString(id)
			d.WriteInt(-1)
			continue
		}
		d.WriteString(id)
		d.WriteInt(int64(j.info.State))
		d.WriteBool(j.info.Held)
	}
}

// digestNodes hashes the node database in registration order: name,
// capacity, usage, and the per-job grants (node order and each Jobs
// list are already deterministic — AddNode order and refreshLocked's
// sort).
func (s *Server) digestNodes(d *audit.Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	}
}

// auditCheckLocked is the online invariant engine. It runs under
// s.mu at every scheduler-cycle boundary (handleSchedInfo), i.e. on
// exactly the state snapshot the scheduler is about to act on, in
// both server modes (the sharded router pins SchedInfoReq to shard 0
// and every handler serializes on s.mu, so the walk is race-free).
func (s *Server) auditCheckLocked() {
	a := s.aud
	if a == nil {
		return
	}

	// Node-side walk: per-node conservation, double allocation, and
	// the node view's agreement with its own ledger.
	accTotal, accAllocated, accFree := int64(0), int64(0), int64(0)
	for _, n := range s.table {
		name := n.info.Name
		used := 0
		mirrored := len(n.info.Jobs) == len(n.usedBy)
		for _, id := range n.info.Jobs {
			c, ok := n.usedBy[id]
			if !ok {
				mirrored = false
			}
			used += c
		}
		a.Check("pbs", "view.node-jobs", name, mirrored, int64(len(n.info.Jobs)), int64(len(n.usedBy)))
		switch n.info.Type {
		case ComputeNode:
			a.Check("pbs", "conservation.cores", name,
				used == n.info.UsedCores && n.info.UsedCores <= n.info.Cores,
				int64(used), int64(n.info.UsedCores))
		case AcceleratorNode:
			accTotal++
			if len(n.usedBy) > 0 {
				accAllocated++
			} else if !n.info.Down {
				accFree++
			}
			a.Check("pbs", "double-alloc", name, len(n.usedBy) <= 1, int64(len(n.usedBy)), 0)
		}
	}

	// Job-side walk in submission order: every host a live job claims
	// must hold a matching usedBy entry; count accelerator claims to
	// close the conservation loop against the node-side walk.
	jobClaimedACs := int64(0)
	for _, id := range s.order {
		j, ok := s.index.get(id)
		if !ok || (j.info.State != JobRunning && j.info.State != JobQueued) {
			continue
		}
		live := j.info.State == JobRunning
		for _, h := range jobHosts(j.info) {
			n, ok := s.nodes[h]
			held := ok && n.usedBy[id] > 0
			if live {
				a.Check("pbs", "view.job-hosts", h, held, int64(jobSeq(id)), 0)
			}
			if ok && n.info.Type == AcceleratorNode && held {
				jobClaimedACs++
			}
		}
	}
	a.Check("pbs", "conservation.acc", "global",
		accAllocated+accFree+s.downFreeACsLocked() == accTotal && jobClaimedACs == accAllocated,
		accAllocated+accFree, accTotal)

	// Reverse direction of view.job-hosts: every usedBy entry belongs
	// to a job the index knows in a non-terminal state.
	for _, n := range s.table {
		for _, id := range n.info.Jobs {
			j, ok := s.index.get(id)
			a.Check("pbs", "view.job-hosts", n.info.Name,
				ok && (j.info.State == JobRunning || j.info.State == JobQueued),
				int64(jobSeq(id)), 1)
		}
	}

	// Index integrity: no job lost or duplicated across partitions.
	total := 0
	for pi := range s.index.parts {
		p := &s.index.parts[pi]
		total += len(p.jobs)
		for id := range p.jobs {
			a.Check("pbs", "jobs.partition", id,
				s.index.partFor(jobSeq(id)) == p, int64(jobSeq(id)), int64(pi))
		}
		// An active entry must be the record its id resolves to: one
		// purged (and scrubbed for reuse) before compactActive dropped
		// the entry would fail here.
		prev := -1
		for _, e := range p.active {
			id := e.j.info.ID
			a.Check("pbs", "jobs.partition", id, p.jobs[id] == e.j && e.seq > prev, int64(e.seq), int64(pi))
			prev = e.seq
		}
	}
	// Retention purges index records but leaves their ids in the
	// submission-order log until it compacts; retired bridges the two.
	a.Check("pbs", "jobs.count", "global", total+s.retired == len(s.order), int64(total+s.retired), int64(len(s.order)))
}

// downFreeACsLocked counts accelerator nodes that are down and
// unallocated — the remainder class of the conservation identity.
func (s *Server) downFreeACsLocked() int64 {
	n := int64(0)
	for _, nd := range s.table {
		if nd.info.Type == AcceleratorNode && nd.info.Down && len(nd.usedBy) == 0 {
			n++
		}
	}
	return n
}
