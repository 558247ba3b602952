package pbs

import (
	"errors"
	"slices"

	"repro/internal/audit"
	"repro/internal/netsim"
)

// Fault tolerance (the paper's outlook, Section VI): moms report
// liveness through periodic heartbeats; a failure detector on the
// server marks silent nodes down, removes lost accelerators from
// their jobs (the application continues with the remaining set, just
// as after a rejected dynamic request), and fails jobs whose compute
// node died. Recovered nodes return to the pool on their next
// heartbeat.

// startHeartbeats spawns the mom's heartbeat sender when enabled.
func (m *Mom) startHeartbeats() {
	if m.params.HeartbeatEvery <= 0 {
		return
	}
	m.sim.Go("heartbeat@"+m.host, func() {
		for {
			m.sim.Sleep(m.params.HeartbeatEvery)
			if err := m.ep.Send(ServerEndpoint, "pbs", HeartbeatMsg{Host: m.host}, 0); err != nil {
				return // fabric closed
			}
		}
	})
}

// startFailureDetector spawns the server's sweep actor when enabled.
func (s *Server) startFailureDetector() {
	if s.params.DeadAfter <= 0 {
		return
	}
	period := s.params.DeadAfter / 4
	if period <= 0 {
		period = s.params.DeadAfter
	}
	mon := s.net.Endpoint(ServerEndpoint + "/monitor")
	s.sim.Go("pbs_server/monitor", func() {
		for {
			m, err := mon.RecvTimeout(period)
			m.Release()
			if errors.Is(err, netsim.ErrTimeout) {
				s.sweepDeadNodes()
				continue
			}
			if err != nil {
				return // fabric closed
			}
		}
	})
}

// heartbeat records a liveness report, reviving a down node.
func (s *Server) heartbeat(host string) {
	s.mu.Lock()
	n, ok := s.nodes[host]
	if !ok {
		s.mu.Unlock()
		return
	}
	n.lastSeen = s.sim.Now()
	revived := n.info.Down
	if revived {
		n.info.Down = false
		s.touchLocked(n)
		s.aud.Record(audit.KindNode, "pbs", host, "up", int64(n.info.Cores-n.info.UsedCores), int64(len(n.usedBy)))
	}
	s.mu.Unlock()
	if revived {
		s.kickScheduler("node-up:" + host)
	}
}

// sweepDeadNodes declares nodes dead after DeadAfter of silence, in
// node-database order: when several die in one sweep, the order of
// their repairs (sends, accounting records, audit events) is part of
// the run's recording.
func (s *Server) sweepDeadNodes() {
	now := s.sim.Now()
	s.mu.Lock()
	var dead []string
	for _, n := range s.table {
		if !n.info.Down && now-n.lastSeen > s.params.DeadAfter {
			dead = append(dead, n.info.Name)
		}
	}
	s.mu.Unlock()
	for _, name := range dead {
		s.nodeDown(name)
	}
}

// nodeDown marks one node failed and repairs the jobs touching it.
func (s *Server) nodeDown(host string) {
	s.mu.Lock()
	n, ok := s.nodes[host]
	if !ok || n.info.Down {
		s.mu.Unlock()
		return
	}
	n.info.Down = true
	s.touchLocked(n)
	s.aud.Record(audit.KindNode, "pbs", host, "down", 0, int64(len(n.usedBy)))
	// The advertised job list mirrors usedBy (view.node-jobs) and is
	// sorted, so the repairs below run in one order every run.
	affected := append([]string(nil), n.info.Jobs...)
	isCN := n.info.Type == ComputeNode
	s.mu.Unlock()

	for _, jobID := range affected {
		if isCN {
			s.endJob(jobID, &endFailed, host, "", nil)
		} else {
			s.dropAccelerator(jobID, host)
		}
	}
	s.kickScheduler("node-down:" + host)
}

// dropAccelerator removes a dead accelerator from its job; the
// application keeps running with its remaining set.
func (s *Server) dropAccelerator(jobID, host string) {
	s.mu.Lock()
	j, ok := s.index.jobs[jobID]
	if !ok {
		s.mu.Unlock()
		return
	}
	// The lists are shared with the moms, the script and whoever was
	// granted the set: the server's view moves to new ones.
	for i, acs := range j.info.AccHosts {
		if kept := without(acs, host); len(kept) != len(acs) {
			j.info.AccHosts = slices.Clone(j.info.AccHosts)
			j.info.AccHosts[i] = kept
			break // an accelerator serves one compute node
		}
	}
	for id, acs := range j.info.DynSets {
		j.info.DynSets[id] = without(acs, host)
	}
	if n, ok := s.nodes[host]; ok {
		if c, held := n.usedBy[jobID]; held {
			s.aud.Record(audit.KindRelease, "pbs", host, jobID, int64(c), 0)
			delete(n.usedBy, jobID)
			s.refreshLocked(n)
		}
	}
	ms := ""
	if j.info.State == JobRunning && len(j.info.Hosts) > 0 {
		ms = s.momEPLocked(j.info.Hosts[0])
	}
	s.mu.Unlock()
	if ms != "" {
		s.send(ms, NodeLostMsg{JobID: jobID, Host: host})
	}
}

// NodeDownForTest force-fails a node, bypassing the detector (test
// hook mirroring an operator's pbsnodes -o).
func (s *Server) NodeDownForTest(host string) { s.nodeDown(host) }
