package pbs

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The station model. Both pbs daemons are queueing stations run at the
// delivery events of their endpoint (netsim.Endpoint.SetHandler), not
// goroutine actors. A station serves what it is offered in arrival
// order, up to batch messages at a time, a batch costing cost(its first
// message) of virtual time; one that costs nothing is served at once.
// The paper's pbs_server is one station, batch 1, Processing a request:
// the single thread behind Figure 9's staircase. The sharded server is
// Shards stations, unbounded batches, Processing a batch (batched IFL
// RPCs overlap in virtual time; the handlers still serialize on s.mu).
// A pbs_mom is one station, batch 1, JoinCost for a JOIN, DynJoinCost
// for a DYNJOIN and nothing for the rest.
//
// A station takes its completion's seq where the actor loop it replaces
// slept (in the delivering callback when idle, at the previous completion
// when busy) and serves where the actor resumed, so every release order,
// virtual time and count is the actor's (DESIGN.md §7).
type station struct {
	sim   *sim.Simulation
	batch int
	cost  func(*netsim.Message) time.Duration
	serve func(*netsim.Message) // may keep the payload; the station releases the envelope
	// batches and busy count batches and their cost (sharded server only).
	batches *telemetry.Counter
	busy    *telemetry.Occupancy
	// queue[head:head+serving] is in service, the rest waits; d is the
	// in-service batch's cost.
	queue         []*netsim.Message
	head, serving int
	d             time.Duration
}

// offer hands the station a delivered message.
func (st *station) offer(m *netsim.Message) {
	st.queue = append(st.queue, m)
	if st.serving == 0 {
		st.start()
	}
}

// start takes the head of the waiting queue into service: a batch that
// costs time completes at stationDone, one that costs nothing is served
// now and the next taken.
func (st *station) start() {
	for st.head < len(st.queue) {
		st.serving = min(len(st.queue)-st.head, st.batch)
		if st.d = st.cost(st.queue[st.head]); st.d > 0 {
			st.sim.AfterArg(st.d, stationDone, st)
			return
		}
		st.finish()
	}
}

// stationDone is a batch's completion event (AfterArg keeps the
// per-batch schedule closure-free).
func stationDone(arg any) {
	st := arg.(*station)
	st.finish()
	st.start()
}

// finish serves the batch in service.
func (st *station) finish() {
	for i := st.head; i < st.head+st.serving; i++ {
		m := st.queue[i]
		st.queue[i] = nil
		st.serve(m)
		m.Release()
	}
	st.head += st.serving
	st.serving = 0
	if st.head > len(st.queue)/2 { // slide the waiting tail down once it is the smaller part
		n := copy(st.queue, st.queue[st.head:])
		clear(st.queue[n:])
		st.queue, st.head = st.queue[:n], 0
	}
	st.batches.Inc()
	st.busy.OnFor(st.d)
}

// shardFor routes one payload to a station of the server. Job-scoped
// traffic follows the job's sequence number, preserving per-job message
// order within one station. Dynamic allocation commands and acks follow
// the server-side request id; the record they address was created by a
// DynGetReq on the job's station, and by the time an alloc command
// arrives the scheduler has already observed that record, so the
// cross-station handoff is causally ordered. Heartbeats hash by host,
// submissions round-robin on *rr, and cluster-wide queries (scheduler
// snapshots, node and job listings) pin to station 0.
func (s *Server) shardFor(payload any, rr *int) int {
	n := len(s.stations)
	if n == 1 {
		return 0
	}
	switch req := payload.(type) {
	case SubmitReq:
		*rr++
		return *rr % n
	case StatReq:
		return jobSeq(req.JobID) % n
	case AlterReq:
		return jobSeq(req.JobID) % n
	case HoldReq:
		return jobSeq(req.JobID) % n
	case DeleteReq:
		return jobSeq(req.JobID) % n
	case WaitReq:
		return jobSeq(req.JobID) % n
	case DynGetReq:
		return jobSeq(req.JobID) % n
	case DynFreeReq:
		return jobSeq(req.JobID) % n
	case AllocCmd:
		return jobSeq(req.JobID) % n
	case JobStartedMsg:
		return jobSeq(req.JobID) % n
	case JobDoneMsg:
		return jobSeq(req.JobID) % n
	case DynAllocCmd:
		return req.ReqID % n
	case DynAddAck:
		return req.ReqID % n
	case HeartbeatMsg:
		return hostShard(req.Host, n)
	}
	return 0
}

// hostShard hashes a host name onto a shard (FNV-1a).
func hostShard(host string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return int(h % uint32(n))
}
