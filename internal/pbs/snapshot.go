package pbs

import (
	"errors"
	"time"
)

// Server checkpoint/restart, the counterpart of TORQUE's serverdb:
// the server's durable state — jobs, node database, counters — can be
// snapshotted and a replacement server constructed from it after a
// head-node failure. Moms and running applications are unaffected
// (they address the server by its well-known endpoint); requests that
// arrive while no server runs queue in the fabric and are drained by
// the restarted server. Dynamic requests that were mid-flight at the
// crash are rejected on recovery, the same contract as a rejected
// allocation: the application continues with its existing resources.

// stopMsg is the internal control message that takes the server off its
// endpoint (simulating a crash or an orderly shutdown).
type stopMsg struct{}

// Stop takes the server off its endpoint once the message it sends
// arrives: the requests its stations already hold are still served,
// the endpoint stays registered, and later requests queue there until
// a restarted server's Start drains them in order.
func (s *Server) Stop() {
	s.send(ServerEndpoint, stopMsg{})
}

// Snapshot is the serverdb image. Job scripts are retained as live
// values (TORQUE keeps job files on disk next to the serverdb).
type Snapshot struct {
	TakenAt    time.Duration
	NextJob    int
	NextClient int
	NextDyn    int
	Jobs       []JobInfo
	Order      []string
	Nodes      []NodeInfo
	UsedBy     map[string]map[string]int // node -> job -> cores
	Waiters    map[string][]waiter
	Pending    []*DynRecord
	PendingTo  map[int]dynReplyTo
}

// Checkpoint captures the server's durable state.
func (s *Server) Checkpoint() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		TakenAt:    s.sim.Now(),
		NextJob:    s.nextJob,
		NextClient: s.nextClient,
		NextDyn:    s.nextDyn,
		Order:      make([]string, 0, len(s.order)),
		UsedBy:     make(map[string]map[string]int),
		Waiters:    make(map[string][]waiter),
		PendingTo:  make(map[int]dynReplyTo),
	}
	for _, ref := range s.order {
		snap.Order = append(snap.Order, ref.id)
		if j, ok := s.index.jobs[ref.id]; ok {
			snap.Jobs = append(snap.Jobs, cloneInfo(j.info))
		}
	}
	snap.Nodes = s.nodeViewLocked()
	for _, n := range s.table {
		used := make(map[string]int, len(n.usedBy))
		for j, c := range n.usedBy {
			used[j] = c
		}
		snap.UsedBy[n.info.Name] = used
	}
	for jobID, ws := range s.waiters {
		snap.Waiters[jobID] = append([]waiter(nil), ws...)
	}
	for _, rec := range s.dynQ {
		cp := *rec
		snap.Pending = append(snap.Pending, &cp)
		snap.PendingTo[rec.ReqID] = s.dynReply[rec.ReqID]
	}
	return snap
}

// Restore rebuilds a server from a snapshot. Call on a fresh server
// created with NewServer over the same fabric (it shares the
// well-known endpoint), then Start it. In-flight dynamic requests are
// rejected so their clients unblock.
func (s *Server) Restore(snap Snapshot) error {
	s.mu.Lock()
	if len(s.index.jobs) != 0 || len(s.nodes) != 0 {
		s.mu.Unlock()
		return errors.New("pbs: Restore on a non-empty server")
	}
	s.nextJob = snap.NextJob
	s.nextClient = snap.NextClient
	s.nextDyn = snap.NextDyn
	s.order = make([]jobRef, 0, len(snap.Order))
	for _, id := range snap.Order {
		s.order = append(s.order, jobRef{seq: jobSeq(id), id: id})
	}
	for _, info := range snap.Jobs {
		s.index.jobs[info.ID] = &serverJob{seq: jobSeq(info.ID), info: cloneInfo(info)}
	}
	for _, ref := range s.order {
		if j, ok := s.index.jobs[ref.id]; ok && j.live() {
			s.index.activate(j)
			s.touchJobLocked(j)
		}
	}
	now := s.sim.Now()
	for _, info := range snap.Nodes {
		n := &serverNode{
			info:       info,
			usedBy:     make(map[string]int),
			lastChange: now,
			lastSeen:   now,
		}
		n.info.Jobs = append([]string(nil), info.Jobs...)
		for j, c := range snap.UsedBy[info.Name] {
			n.usedBy[j] = c
		}
		s.addNodeLocked(n)
	}
	for jobID, ws := range snap.Waiters {
		s.waiters[jobID] = append([]waiter(nil), ws...)
	}
	// Mid-flight dynamic requests did not survive the crash: reject
	// them so the blocked pbs_dynget calls return and the applications
	// continue with their existing sets. They get a reply route and no
	// place in the queue: a request restored only to be refused is never
	// taken into service.
	for _, p := range snap.Pending {
		rec := *p
		s.dynReply[rec.ReqID] = snap.PendingTo[rec.ReqID]
		// Return any accelerators an in-forwarding request had already
		// been assigned.
		if j, ok := s.index.jobs[rec.JobID]; ok && rec.ClientID > 0 {
			s.releaseDynSetLocked(j, rec.ClientID)
		}
		s.rejectDynLocked(&rec, "pbs: server restarted; dynamic request lost", false)
	}
	s.mu.Unlock()
	s.kickScheduler("restore")
	return nil
}
