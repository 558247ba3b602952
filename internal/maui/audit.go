package maui

import (
	"sort"

	"repro/internal/audit"
	"repro/internal/pbs"
)

// Flight-recorder integration for the scheduler: a KindCycle event
// per iteration, consistency checks over the fetched node view (the
// pbs/maui view-agreement half of the audit — the server checks its
// own books in pbs/audit.go, the scheduler checks that the view it was
// handed is coherent), and a digest of the policy state. All nil-safe
// no-ops when no recorder is installed.
//
// Invariant names:
//
//	view.agreement   every job a node in the mirror advertises is
//	                 running in the mirror's job view — the
//	                 scheduler and server agree on who holds what
//	view.capacity    every node in the mirror reports a usage
//	                 within [0, Cores], and accelerators at most one
//	                 occupant
//
// Like the server's engine, one check body (auditNodeLocked) has two
// callers: every cycle checks the nodes of the delta just applied to
// the mirror, and the full sweep riding digestSched checks every node
// of the mirror at each digest round.
func (sc *Scheduler) registerAudit() {
	sc.aud = sc.net.Sim().Audit()
	sc.aud.RegisterDigest("maui", "maui.sched", sc.digestSched)
}

// applySnapshot takes one fetched answer into the mirror, checks the
// nodes it brought against the mirror's running jobs and records the
// cycle-boundary event. The mirror changes under sc.mu, which the sweep
// holds while it reads it.
func (sc *Scheduler) applySnapshot(info *pbs.SchedInfoResp) {
	sc.mu.Lock()
	sc.view.Apply(info)
	if sc.aud != nil {
		for i := range info.Nodes {
			sc.auditNodeLocked(&sc.view.Nodes[info.Nodes[i].Index])
		}
		if sc.auditAfterCycle != nil {
			sc.auditAfterCycle()
		}
	}
	sc.mu.Unlock()
	sc.aud.Record(audit.KindCycle, "maui", "snapshot", "", int64(info.Queued), int64(len(info.Dyn)))
}

// auditNodeLocked checks one mirrored node for internal coherence and
// against the mirror's running jobs.
func (sc *Scheduler) auditNodeLocked(n *pbs.NodeInfo) {
	a := sc.aud
	capOK := n.FreeCores() >= 0 && n.UsedCores >= 0
	if n.Type == pbs.AcceleratorNode {
		capOK = capOK && len(n.Jobs) <= 1
	}
	a.Check("maui", "view.capacity", n.Name, capOK, int64(n.UsedCores), int64(n.Cores))
	for _, id := range n.Jobs {
		j := sc.view.Job(id)
		a.Check("maui", "view.agreement", n.Name, j != nil && j.Phase == pbs.PhaseRunning, int64(len(n.Jobs)), 0)
	}
}

// digestSched hashes the scheduler's policy state: the cycle and
// placement counters plus the fairshare ledger in sorted owner order.
// The round also sweeps the whole mirror through the invariant engine.
func (sc *Scheduler) digestSched(d *audit.Digest) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i := range sc.view.Nodes {
		sc.auditNodeLocked(&sc.view.Nodes[i])
	}
	d.WriteInt(sc.stats.Cycles)
	d.WriteInt(sc.stats.JobsPlaced)
	d.WriteInt(sc.stats.DynGranted)
	d.WriteInt(sc.stats.DynRejected)
	d.WriteInt(sc.stats.Backfilled)
	owners := make([]string, 0, len(sc.usage))
	for o := range sc.usage {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	d.WriteInt(int64(len(owners)))
	for _, o := range owners {
		d.WriteString(o)
		// Quantize to microshares: the fairshare ledger is a float
		// accumulator, and hashing raw bits would make the digest
		// hostage to non-semantic last-ulp noise.
		d.WriteInt(int64(sc.usage[o] * 1e6))
	}
}
