package pbs

import (
	"errors"
	"fmt"
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
	snap := Snapshot{
		TakenAt:    s.sim.Now(),
		NextJob:    s.nextJob,
		NextClient: s.nextClient,
		NextDyn:    s.nextDyn,
		Order:      make([]string, 0, len(s.index.log)),
		UsedBy:     make(map[string]map[string]int),
		Waiters:    make(map[string][]waiter),
		PendingTo:  make(map[int]dynReplyTo),
	}
	for _, ref := range s.index.log {
		snap.Order = append(snap.Order, ref.id)
		if ref.j != nil {
			snap.Jobs = append(snap.Jobs, cloneInfo(ref.j.info))
		}
	}
	snap.Nodes = s.nodeView()
	for _, n := range s.table {
		used := make(map[string]int, len(n.used))
		for _, u := range n.used {
			used[u.job] = u.n
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
	if len(s.index.log) != 0 || len(s.nodes) != 0 {
		return errors.New("pbs: Restore on a non-empty server")
	}
	// Checkpoint lists the records in the order of the log, and the log
	// is the index only while it ascends.
	log, k := make([]jobRef, 0, len(snap.Order)), 0
	for _, id := range snap.Order {
		ref := s.logEntry(jobSeq(id), id, nil)
		if n := len(log); ref.seq == 0 || n > 0 && log[n-1].seq >= ref.seq {
			break
		}
		if k < len(snap.Jobs) && snap.Jobs[k].ID == id {
			ref.j = &serverJob{seq: ref.seq, info: cloneInfo(snap.Jobs[k])}
			k++
		}
		log = append(log, ref)
	}
	if len(log) < len(snap.Order) || k < len(snap.Jobs) {
		return errors.New("pbs: Restore: snapshot jobs out of submission order")
	}
	// The jobs resolve their hosts against the restored node table.
	now := s.sim.Now()
	table := make([]*serverNode, len(snap.Nodes))
	byName := make(map[string]*serverNode, len(snap.Nodes))
	block := make([]serverNode, len(snap.Nodes))
	for i, info := range snap.Nodes {
		n := &block[i]
		*n = serverNode{info: info, lastChange: now, lastSeen: now}
		n.info.Jobs = append([]string(nil), info.Jobs...)
		for j, c := range snap.UsedBy[info.Name] {
			n.hold(j, c)
		}
		table[i], byName[info.Name] = n, n
	}
	for _, ref := range log {
		if j := ref.j; j != nil {
			for _, h := range appendHosts(nil, j.info.Hosts, j.info.AccHosts, j.info.DynSets) {
				n, ok := byName[h]
				if !ok {
					return fmt.Errorf("pbs: Restore: job %s on unknown node %s", j.info.ID, h)
				}
				j.nodes = append(j.nodes, n)
			}
		}
	}
	s.index = jobIndex{log: log, records: k, retired: len(log) - k}
	s.nextJob = snap.NextJob
	s.nextClient = snap.NextClient
	s.nextDyn = snap.NextDyn
	for _, ref := range log {
		if ref.j != nil && ref.j.live() {
			s.index.activate(ref.j)
			s.touchJobLocked(ref.j)
		}
	}
	for _, n := range table {
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
		if j := s.index.find(rec.JobID); j != nil && rec.ClientID > 0 {
			s.releaseDynSetLocked(j, rec.ClientID)
		}
		s.rejectDynLocked(&rec, "pbs: server restarted; dynamic request lost", false)
	}
	s.kickScheduler(kickRestore)
	return nil
}
