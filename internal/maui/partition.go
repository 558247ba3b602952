package maui

import (
	"slices"
	"time"

	"repro/internal/pbs"
	"repro/internal/trace"
)

// The partitioned cycle: the scheduler's half of the sharded-server
// ablation. The faithful cycle walks the whole queue serially at
// PerJobCost per job, so cycle time grows linearly with the backlog
// and, through the backlog's growth with cluster size, super-linearly
// with node count. The partitioned cycle deals nodes and queued jobs
// across Params.Partitions partitions, scores candidates within each
// partition against that partition's pool, and advances virtual time
// by the cost of the *slowest* partition — the scoring work overlaps.
// A small global arbiter then commits the proposals serially at
// ArbiterPerJobCost each, preserving a deterministic global priority
// order, and gives each partition's blocked head one retry against
// the other partitions' capacity so fragmentation across partitions
// cannot stall a queue the faithful walk would drain.
//
// Semantics deliberately kept from the faithful path: dynamic
// requests are served first, FIFO, at DynPerReqCost each (they are
// few; parallelizing them would change the paper's top-priority
// policy), and EASY backfill runs per partition under the partition's
// own shadow reservation.

// proposal is one partition's placement candidate awaiting the
// arbiter's commit. The hosts/acc were already taken from the
// partition's pool during scoring, so no two proposals can claim the
// same capacity.
type proposal struct {
	rankedJob  // position in the snapshot's Queued slice, and priority
	hosts      []string
	acc        [][]string
	backfilled bool
}

// arbiterCost is the per-proposal commit cost.
func (sc *Scheduler) arbiterCost() time.Duration {
	if sc.params.ArbiterPerJobCost > 0 {
		return sc.params.ArbiterPerJobCost
	}
	return sc.params.PerJobCost / 8
}

// partitionedCycle replaces both placement phases of the faithful
// cycle. Fetch, overhead, fairshare decay and the pool update have
// already run in beginCycle.
func (sc *Scheduler) partitionedCycle(info *pbs.SchedInfoResp, cyc *trace.Span) {
	// Dynamic requests are served first, FIFO, exactly as the faithful
	// cycle does, against every partition's pool.
	dyn := cyc.Child("dyn")
	for _, r := range info.Dyn {
		sc.serveDyn(r, sc.partPools, dyn)
	}
	dyn.End()
	st := cyc.Child("partitions")
	sc.partitionedStatic(info, st)
	st.End()
}

// partitionedStatic scores candidates partition-parallel and commits
// them through the global arbiter.
func (sc *Scheduler) partitionedStatic(info *pbs.SchedInfoResp, phase *trace.Span) {
	queued := sc.view.Queued
	nParts := sc.params.Partitions

	// Deal jobs to partitions by queue position, skipping jobs whose
	// allocation is still in flight on a server shard (re-placing
	// them would double-commit pool capacity). Priorities are computed
	// once, here (same reasoning as scheduleStatic: virtual time stands
	// still while we score, so values cannot change mid-sort).
	for len(sc.partJobs) < nParts {
		sc.partJobs = append(sc.partJobs, nil)
	}
	for pi := 0; pi < nParts; pi++ {
		sc.partJobs[pi] = sc.partJobs[pi][:0]
	}
	now := sc.sim.Now()
	dealt := 0
	sc.mu.Lock()
	for i, j := range queued {
		if _, ok := sc.inflight[j.ID]; ok {
			continue
		}
		sc.partJobs[dealt%nParts] = append(sc.partJobs[dealt%nParts],
			rankedJob{prio: sc.priority(j.Spec.Priority, now-j.SubmittedAt, sc.usage[j.Spec.Owner]), idx: int32(i)})
		dealt++
	}
	sc.mu.Unlock()

	// Score every partition against its own pool. No virtual time
	// passes during scoring; the concurrent examination cost is
	// charged below as the slowest partition's total.
	proposals := sc.proposals[:0]
	rescue := sc.rescue[:0]
	maxExamined := 0
	for pi := 0; pi < nParts; pi++ {
		order := sc.partJobs[pi]
		sortByPriority(order)
		p := sc.partPools[pi]
		var shadow time.Duration = -1
		examined := 0
		for _, r := range order {
			j := queued[r.idx]
			examined++
			if shadow >= 0 {
				// This partition's head is blocked; only backfill
				// candidates that finish before its reservation.
				if !sc.params.Backfill {
					continue
				}
				if j.Spec.Walltime <= 0 || now+j.Spec.Walltime > shadow {
					continue
				}
			}
			hosts, acc, ok := p.fit(j.Spec, j.ID)
			if !ok {
				if shadow < 0 {
					shadow = shadowTime(sc.view.Running, now)
					rescue = append(rescue, r)
				}
				continue
			}
			proposals = append(proposals, proposal{
				rankedJob: r, hosts: hosts, acc: acc,
				backfilled: shadow >= 0,
			})
		}
		if examined > maxExamined {
			maxExamined = examined
		}
	}
	sc.proposals = proposals
	sc.rescue = rescue

	// The partitions scored concurrently: a cycle pays the slowest
	// one, not the sum — the partitioned cycle's core saving.
	sc.sim.Sleep(time.Duration(maxExamined) * sc.params.PerJobCost)

	// Global arbiter: commit proposals in priority order (ties by
	// queue position) at a small serial cost each.
	slices.SortFunc(proposals, func(a, b proposal) int { return byPriorityThenIndex(a.rankedJob, b.rankedJob) })
	cost := sc.arbiterCost()
	for _, pr := range proposals {
		sc.sim.Sleep(cost)
		if pr.backfilled {
			sc.inst.backfill.Inc()
			sc.mu.Lock()
			sc.stats.Backfilled++
			sc.mu.Unlock()
		}
		sc.place(queued[pr.idx], pr.hosts, pr.acc, phase)
	}

	// Rescue pass: each partition's blocked head retries against the
	// remaining capacity of every partition, highest priority first.
	slices.SortFunc(rescue, byPriorityThenIndex)
	for _, r := range rescue {
		j := queued[r.idx]
		sc.sim.Sleep(cost)
		for pi := 0; pi < nParts; pi++ {
			if hosts, acc, ok := sc.partPools[pi].fit(j.Spec, j.ID); ok {
				sc.place(j, hosts, acc, phase)
				break
			}
		}
	}
}
