package maui

import (
	"sort"

	"repro/internal/audit"
	"repro/internal/pbs"
)

// Flight-recorder integration for the scheduler: a KindCycle event
// per iteration, consistency checks over every fetched snapshot (the
// pbs/maui view-agreement half of the audit — the server checks its
// own books in auditCheckLocked, the scheduler checks that the view
// it was handed is coherent), and a digest of the policy state. All
// nil-safe no-ops when no recorder is installed.
//
// Invariant names:
//
//	view.agreement   every job a node in the mirror advertises
//	                 appears in the snapshot's running list — the
//	                 scheduler and server agree on who holds what
//	view.capacity    every node in the mirror reports a usage
//	                 within [0, Cores], and accelerators at most one
//	                 occupant
func (sc *Scheduler) registerAudit() {
	sc.aud = sc.net.Sim().Audit()
	sc.aud.RegisterDigest("maui", "maui.sched", sc.digestSched)
}

// auditSnapshot checks one fetched scheduler snapshot for internal
// coherence and records the cycle-boundary event.
func (sc *Scheduler) auditSnapshot(info *pbs.SchedInfoResp) {
	a := sc.aud
	if a == nil {
		return
	}
	if sc.auditRunning == nil {
		sc.auditRunning = make(map[string]bool)
	}
	clear(sc.auditRunning)
	for i := range info.Running {
		sc.auditRunning[info.Running[i].ID] = true
	}
	for i := range sc.view.Nodes {
		n := &sc.view.Nodes[i]
		free := n.FreeCores()
		capOK := free >= 0 && n.UsedCores >= 0
		if n.Type == pbs.AcceleratorNode {
			capOK = capOK && len(n.Jobs) <= 1
		}
		a.Check("maui", "view.capacity", n.Name, capOK, int64(n.UsedCores), int64(n.Cores))
		for _, id := range n.Jobs {
			a.Check("maui", "view.agreement", n.Name, sc.auditRunning[id], int64(len(n.Jobs)), 0)
		}
	}
	a.Record(audit.KindCycle, "maui", "snapshot", "", int64(len(info.Queued)), int64(len(info.Dyn)))
}

// digestSched hashes the scheduler's policy state: the cycle and
// placement counters plus the fairshare ledger in sorted owner order.
func (sc *Scheduler) digestSched(d *audit.Digest) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
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
