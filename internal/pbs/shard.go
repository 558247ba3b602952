package pbs

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// The sharded fast path: the production-oriented ablation against the
// paper's serial pbs_server. A router actor owns the well-known
// endpoint and fans messages out to ServerParams.Shards worker
// actors. Routing is keyed so every message concerning one job lands
// on the same shard (the job id's sequence number), dynamic
// allocation commands and acks follow their server-side request id,
// heartbeats hash by host, and submissions round-robin. Each worker
// drains its mailbox as a batch and pays Processing once per batch —
// batched IFL RPC handling — so the handling cost of unrelated
// requests overlaps in virtual time instead of accumulating behind a
// single daemon thread, and an unbounded service window (dynWindow)
// pipelines DYNJOIN so a join in flight no longer blocks other dynamic
// requests.
//
// The handlers themselves are unchanged and still serialize on s.mu:
// the discrete-event kernel runs one actor at a time, so the win is
// not host-side lock striping but virtual-time concurrency — exactly
// the serialization effect of the paper's Figure 8 that the sharding
// is meant to buy back.

// serverShard is one worker's mailbox. The router appends and signals
// the gate; the worker swaps the queue against the spare buffer (the
// previous batch's storage) so steady-state dispatch recycles both
// arrays. Only the router and the worker touch it, and the kernel runs
// one actor at a time, so it takes no lock.
type serverShard struct {
	gate   *sim.Gate
	queue  []*netsim.Message
	spare  []*netsim.Message
	closed bool
}

// startSharded spawns the router and the shard workers.
func (s *Server) startSharded() {
	shards := make([]*serverShard, s.params.Shards)
	for i := range shards {
		shards[i] = &serverShard{gate: s.sim.NewGate(fmt.Sprintf("pbs_shard%d", i))}
	}
	s.shards = shards
	for i := range shards {
		sh := shards[i]
		s.sim.Go(fmt.Sprintf("pbs_server/shard%d", i), func() { s.shardWorker(sh) })
	}
	s.sim.Go("pbs_server", func() {
		rr := 0
		for {
			m, err := s.ep.Recv()
			if err != nil {
				s.closeShards()
				return
			}
			if _, stop := m.Payload.(stopMsg); stop {
				m.Release()
				s.closeShards()
				return
			}
			sh := shards[s.shardFor(m.Payload, &rr)]
			sh.queue = append(sh.queue, m)
			sh.gate.Signal()
		}
	})
}

// closeShards drains the workers: each finishes the messages already
// routed to it, then exits.
func (s *Server) closeShards() {
	for _, sh := range s.shards {
		sh.closed = true
		sh.gate.Broadcast()
	}
}

// shardWorker is one shard's actor loop: take the whole mailbox as a
// batch, pay Processing once, handle every message.
func (s *Server) shardWorker(sh *serverShard) {
	for {
		for len(sh.queue) == 0 && !sh.closed {
			sh.gate.Wait(nil)
		}
		if len(sh.queue) == 0 {
			return
		}
		batch := sh.queue
		sh.queue = sh.spare[:0]
		sh.spare = batch

		start := s.sim.Now()
		s.sim.Sleep(s.params.Processing)
		for _, m := range batch {
			delivered := m.Delivered
			s.handle(m)
			// Service time as the requester experiences it, same
			// definition as the faithful loop.
			s.inst.rpcService.Record(s.sim.Now() - delivered)
			m.Release()
		}
		s.inst.rpcBatches.Inc()
		s.inst.shardBusy.OnFor(s.sim.Now() - start)
	}
}

// shardFor routes one payload to a shard. Job-scoped traffic follows
// the job's sequence number, preserving per-job message order within
// one worker. Dynamic allocation commands and acks follow the
// server-side request id; the record they address was created by a
// DynGetReq on the job's shard, and by the time an alloc command
// arrives the scheduler has already observed that record, so the
// cross-shard handoff is causally ordered. Cluster-wide queries
// (scheduler snapshots, node and job listings) pin to shard 0.
func (s *Server) shardFor(payload any, rr *int) int {
	n := s.params.Shards
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
