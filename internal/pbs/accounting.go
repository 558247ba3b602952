package pbs

import (
	"sort"
	"time"
)

// Accounting: the server keeps per-node busy-time integrals, the
// counterpart of TORQUE's accounting logs. Utilization numbers drive
// the workload-level comparisons (dynamic vs static allocation) and
// the dactrace reports.

// NodeUsage is the accounting view of one node.
type NodeUsage struct {
	Name  string
	Type  NodeType
	Cores int
	// BusyCoreSeconds integrates used cores over time (an accelerator
	// counts as one core while assigned).
	BusyCoreSeconds float64
}

// Utilization reports BusyCoreSeconds relative to full occupancy over
// the elapsed interval.
func (u NodeUsage) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 || u.Cores == 0 {
		return 0
	}
	return u.BusyCoreSeconds / (elapsed.Seconds() * float64(u.Cores))
}

// accrueLocked folds the node's busy time since the last change into
// its integral, based on the pre-mutation view in n.info. Callers
// hold s.mu; refreshLocked invokes it before recomputing the view.
func (s *Server) accrueLocked(n *serverNode) {
	now := s.sim.Now()
	busy := n.info.UsedCores
	if n.info.Type == AcceleratorNode && len(n.info.Jobs) > 0 {
		busy = 1
	}
	n.busyCoreSeconds += float64(busy) * (now - n.lastChange).Seconds()
	n.lastChange = now
}

// Usage returns the accounting snapshot, with integrals flushed to
// the current instant, ordered by node name.
func (s *Server) Usage() []NodeUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeUsage, 0, len(s.table))
	for _, n := range s.table {
		s.accrueLocked(n)
		out = append(out, NodeUsage{
			Name:            n.info.Name,
			Type:            n.info.Type,
			Cores:           n.info.Cores,
			BusyCoreSeconds: n.busyCoreSeconds,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// ClusterUtilization aggregates compute-core and accelerator
// utilization over the elapsed interval.
func (s *Server) ClusterUtilization(elapsed time.Duration) (compute, accel float64) {
	var cnBusy, cnCap, acBusy, acCap float64
	for _, u := range s.Usage() {
		switch u.Type {
		case ComputeNode:
			cnBusy += u.BusyCoreSeconds
			cnCap += elapsed.Seconds() * float64(u.Cores)
		case AcceleratorNode:
			acBusy += u.BusyCoreSeconds
			acCap += elapsed.Seconds()
		}
	}
	if cnCap > 0 {
		compute = cnBusy / cnCap
	}
	if acCap > 0 {
		accel = acBusy / acCap
	}
	return compute, accel
}
