// Package maui implements a Maui-like scheduler for the extended
// TORQUE server of package pbs: priority scheduling with queue-time
// and fairshare components, optional EASY backfill, and — the paper's
// extension (Section III-E) — scheduling of dynamic accelerator
// requests, which hold the special dynqueued state and are served
// with top priority in FIFO order.
package maui

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultEndpoint is the scheduler's fabric name.
const DefaultEndpoint = "maui"

// Params configures scheduling policy and the cycle cost model.
type Params struct {
	// Endpoint is the scheduler's fabric name (DefaultEndpoint if
	// empty).
	Endpoint string
	// CycleInterval is the idle re-poll period; kicks from the server
	// trigger cycles earlier.
	CycleInterval time.Duration
	// CycleOverhead is the fixed cost per scheduling iteration
	// (queue retrieval, policy setup).
	CycleOverhead time.Duration
	// PerJobCost is the scheduling cost per queued job examined. A
	// dynamic request arriving while a cycle works through a long
	// backlog waits accordingly (Figure 8).
	PerJobCost time.Duration
	// DynPerReqCost is the scheduling cost per dynamic request.
	DynPerReqCost time.Duration
	// ArbiterPerJobCost is the global arbiter's per-proposal commit
	// cost in partitioned cycles (PerJobCost/8 when zero). It is the
	// serial remainder of a partitioned cycle: candidate scoring
	// parallelizes across partitions, committing does not.
	ArbiterPerJobCost time.Duration
	// Partitions selects the cycle architecture. 0 or 1 keeps the
	// faithful single global cycle: every queued job costs PerJobCost
	// serially, which grows linearly with the backlog (the paper's
	// Figure 8 serialization). Values above 1 enable the partitioned
	// cycle (partition.go): nodes and queue are dealt across that many
	// partitions whose candidate scoring overlaps in virtual time — a
	// cycle pays the slowest partition, not the sum — and a small
	// global arbiter commits the proposals.
	Partitions int
	// DynTopPriority places dynamic requests ahead of all static
	// requests (the paper's policy). Disabling it is the ablation:
	// dynamic requests then compete in plain FIFO order by arrival.
	DynTopPriority bool
	// Backfill enables EASY backfill behind a blocked queue head.
	Backfill bool
	// PartialAlloc implements the paper's future-work extension
	// (Section VI): grant fewer accelerators than requested when the
	// pool is short, instead of rejecting.
	PartialAlloc bool
	// QueueTimeWeight adds priority per second of queue wait.
	QueueTimeWeight float64
	// FairshareWeight subtracts priority per unit of decayed usage of
	// the job's owner.
	FairshareWeight float64
	// FairshareDecay multiplies accumulated usage once per cycle
	// (e.g. 0.99).
	FairshareDecay float64
}

// DefaultParams is a reasonable testbed configuration.
func DefaultParams() Params {
	return Params{
		Endpoint:        DefaultEndpoint,
		CycleInterval:   500 * time.Millisecond,
		CycleOverhead:   20 * time.Millisecond,
		PerJobCost:      25 * time.Millisecond,
		DynPerReqCost:   25 * time.Millisecond,
		DynTopPriority:  true,
		Backfill:        true,
		QueueTimeWeight: 0.1,
		FairshareWeight: 1,
		FairshareDecay:  0.95,
	}
}

// Stats summarizes scheduler activity. The cycle-time fields are
// virtual durations of full scheduling iterations (fetch through
// placement) — the figure the -fig scale experiment tracks against
// cluster size.
type Stats struct {
	Cycles      int64
	JobsPlaced  int64
	DynGranted  int64
	DynRejected int64
	Backfilled  int64

	CycleTimeTotal time.Duration // sum of per-cycle virtual durations
	CycleTimeMax   time.Duration // longest single cycle
}

// CycleTimeMean reports the average virtual duration of a scheduling
// cycle (zero before the first cycle completes).
func (st Stats) CycleTimeMean() time.Duration {
	if st.Cycles == 0 {
		return 0
	}
	return st.CycleTimeTotal / time.Duration(st.Cycles)
}

// Scheduler is the Maui daemon.
type Scheduler struct {
	net      *netsim.Network
	sim      *sim.Simulation
	ep       *netsim.Endpoint
	serverEP string
	params   Params
	inst     schedInstruments
	// aud is the flight recorder (nil when auditing is off), and
	// auditAfterCycle is a test hook run after each cycle's checks.
	// See audit.go.
	aud             *audit.Recorder
	auditAfterCycle func()

	mu    sync.Mutex
	usage map[string]float64 // owner -> decayed node-seconds
	stats Stats

	heads heads // the cycle's priority order (order.go): scheduler actor only

	// In-flight decision tracking: job IDs and dyn request IDs whose
	// Alloc/DynAllocCmd was sent but may not yet be reflected in the
	// server's snapshot. With the faithful server the FIFO loop
	// guarantees commands land before the next SchedInfoReq, so these
	// never match a snapshot entry; with the sharded server the
	// snapshot (shard 0) can race a command still queued on another
	// shard, and without suppression the scheduler would re-place the
	// job and double-commit cycle-pool capacity. Entries expire after
	// inflightWindow cycles (beginCycle sweeps them) so a genuinely
	// dropped allocation retries.
	inflight    map[string]uint64 // job ID -> cycleIndex at placement
	dynInflight map[int]uint64    // dyn ReqID -> cycleIndex at grant
	cycleIndex  uint64

	// view mirrors the server's nodes and jobs (each cycle's fetch brings
	// only what changed; it is rewritten under mu, see applySnapshot) and
	// partPools index it: one pool in
	// the faithful cycle, one per partition in the partitioned cycle
	// (partition.go), which also uses the scratch below. See pools.go.
	view      pbs.Mirror
	partPools []*pools
	partJobs  [][]rankedJob
	proposals []proposal
	rescue    []rankedJob
}

// schedInstruments are the scheduler's live metrics, resolved once at
// construction (nil no-op handles when telemetry is off).
type schedInstruments struct {
	cycle      *telemetry.Histogram // full-iteration virtual duration
	occupancy  *telemetry.Occupancy // time spent inside cycles
	queueDepth *telemetry.Gauge     // schedulable queue at cycle start
	placed     *telemetry.Counter
	backfill   *telemetry.Counter
	idle       *telemetry.Counter // cycles whose snapshot had no work
}

// New creates a scheduler speaking to the given server endpoint. The
// priority order (order.go) needs QueueTimeWeight ≥ 0.
func New(net *netsim.Network, serverEP string, params Params) *Scheduler {
	if !(params.QueueTimeWeight >= 0) {
		panic("maui: QueueTimeWeight must be >= 0")
	}
	if params.Endpoint == "" {
		params.Endpoint = DefaultEndpoint
	}
	reg := net.Sim().Telemetry()
	sc := &Scheduler{
		net:         net,
		sim:         net.Sim(),
		ep:          net.Endpoint(params.Endpoint),
		serverEP:    serverEP,
		params:      params,
		usage:       make(map[string]float64),
		inflight:    make(map[string]uint64),
		dynInflight: make(map[int]uint64),
		inst: schedInstruments{
			cycle:      reg.Histogram("maui.cycle"),
			occupancy:  reg.Occupancy("maui.occupancy"),
			queueDepth: reg.Gauge("maui.queue_depth"),
			placed:     reg.Counter("maui.placed"),
			backfill:   reg.Counter("maui.backfill_hits"),
			idle:       reg.Counter("maui.idle_cycles"),
		},
	}
	nParts := max(params.Partitions, 1)
	for pi := 0; pi < nParts; pi++ {
		sc.partPools = append(sc.partPools, newPools(&sc.view, pi, nParts))
	}
	sc.registerAudit()
	return sc
}

// Endpoint returns the scheduler's fabric name.
func (sc *Scheduler) Endpoint() string { return sc.ep.Name() }

// Stats returns a snapshot of scheduler counters.
func (sc *Scheduler) Stats() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.stats
}

// Usage returns the decayed fairshare usage of an owner.
func (sc *Scheduler) Usage(owner string) float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.usage[owner]
}

// Start spawns the scheduler actor: cycles run on kicks from the
// server and at least every CycleInterval.
func (sc *Scheduler) Start() {
	sc.sim.Go("maui", func() {
		for {
			m, err := sc.ep.RecvTimeout(sc.params.CycleInterval)
			m.Release()
			if err != nil && !errors.Is(err, netsim.ErrTimeout) {
				return
			}
			// Coalesce pending kicks: one cycle serves them all.
			for sc.ep.Pending() > 0 {
				m, err := sc.ep.Recv()
				m.Release()
				if err != nil {
					return
				}
			}
			if !sc.runCycle() {
				return
			}
		}
	})
}

// RunCycleOnce performs a single scheduling iteration synchronously
// (for tests and single-stepped experiments).
func (sc *Scheduler) RunCycleOnce() { sc.runCycle() }

// runCycle is one scheduling iteration. It returns false when the
// fabric has closed.
func (sc *Scheduler) runCycle() bool {
	start := sc.sim.Now()
	ok := sc.cycle()
	if ok {
		d := sc.sim.Now() - start
		sc.inst.cycle.Record(d)
		sc.inst.occupancy.OnFor(d)
		sc.mu.Lock()
		sc.stats.CycleTimeTotal += d
		if d > sc.stats.CycleTimeMax {
			sc.stats.CycleTimeMax = d
		}
		sc.mu.Unlock()
	}
	return ok
}

// cycle does the work of one scheduling iteration. Each phase (fetch,
// pool update, dyn fit, static fit) runs under its own child span of
// sched.cycle, giving the per-phase timing the paper's Figure 8
// analysis needs.
func (sc *Scheduler) cycle() bool {
	cyc := sc.sim.Tracer().Start("maui", "sched.cycle")
	defer cyc.End()
	info, err := sc.beginCycle(cyc)
	if err != nil {
		return false
	}
	// The answer (and everything aliasing its buffers) is valid until
	// this release; the node mirror until the next fetch.
	defer info.Release()
	sc.schedule(info, cyc)
	return true
}

// beginCycle fetches the round's answer and brings the scheduler's
// state — in-flight tracking, fairshare, node mirror, pools — up to
// it; schedule then decides on exactly that state.
func (sc *Scheduler) beginCycle(cyc *trace.Span) (*pbs.SchedInfoResp, error) {
	fetch := cyc.Child("fetch")
	info, err := sc.view.Request(sc.ep, sc.serverEP)
	fetch.End()
	if err != nil {
		return nil, err
	}
	sc.applySnapshot(info)
	sc.sim.Sleep(sc.params.CycleOverhead)
	sc.cycleIndex++
	// Expire the in-flight entries past their window: a lookup finds only
	// live decisions (each entry is judged alone: walk order is moot).
	for id, at := range sc.inflight {
		if sc.cycleIndex-at >= inflightWindow {
			delete(sc.inflight, id)
		}
	}
	for req, at := range sc.dynInflight {
		if sc.cycleIndex-at >= inflightWindow {
			delete(sc.dynInflight, req)
		}
	}
	sc.mu.Lock()
	sc.stats.Cycles++
	if sc.params.FairshareDecay > 0 {
		for k := range sc.usage {
			sc.usage[k] *= sc.params.FairshareDecay
		}
	}
	sc.mu.Unlock()
	if info.Queued == 0 && len(info.Dyn) == 0 {
		sc.inst.idle.Inc()
	}

	// Undo what the previous cycle charged tentatively, then take in
	// the nodes that changed.
	pb := cyc.Child("pools")
	ps := sc.partPools
	for _, p := range ps {
		p.rollback()
	}
	for i := range info.Nodes {
		idx := info.Nodes[i].Index
		ps[idx%len(ps)].sync(idx / len(ps))
	}
	pb.End()
	sc.inst.queueDepth.Set(float64(info.Queued))
	return info, nil
}

// schedule runs the cycle's placement phases against the pools.
func (sc *Scheduler) schedule(info *pbs.SchedInfoResp, cyc *trace.Span) {
	ps := sc.partPools
	switch {
	case sc.params.Partitions > 1:
		sc.partitionedCycle(info, cyc)
	case sc.params.DynTopPriority:
		dyn := cyc.Child("dyn")
		for _, r := range info.Dyn {
			sc.serveDyn(r, ps, dyn)
		}
		dyn.End()
		st := cyc.Child("static")
		sc.scheduleStatic(ps[0], st)
		st.End()
	default:
		// Ablation: merge dynamic requests into the FIFO stream by
		// arrival time — they wait behind earlier static submissions.
		fifo := cyc.Child("fifo")
		sc.schedulePlainFIFO(info, ps, fifo)
		fifo.End()
	}
}

// serveDyn schedules one dynamic request against the cycle's pools —
// the faithful cycle's single pool or every partition's. Accelerators
// are drawn across the pools starting at the request id's home pool,
// so partitioning never strands free accelerators, and a short supply
// rejects the request unless PartialAlloc grants what there is;
// compute-kind requests place within a single pool, all-or-nothing.
func (sc *Scheduler) serveDyn(r pbs.SchedDynView, ps []*pools, phase *trace.Span) {
	if _, ok := sc.dynInflight[r.ReqID]; ok {
		return // grant still in flight on a server shard
	}
	var sp *trace.Span
	if phase != nil {
		sp = phase.Child("sched.dyn", "job", r.JobID, "req", strconv.Itoa(r.ReqID), "count", strconv.Itoa(r.Count))
	}
	sc.sim.Sleep(sc.params.DynPerReqCost)
	var hosts []string
	if r.Kind == pbs.KindCompute {
		for off := 0; off < len(ps) && hosts == nil; off++ {
			hosts = ps[(r.ReqID+off)%len(ps)].takeCNs(r.Count, r.PPN, r.JobID)
		}
	} else {
		free := 0
		for _, p := range ps {
			free += p.nACs
		}
		want := r.Count
		if want > free {
			want = 0
			if sc.params.PartialAlloc {
				want = free
			}
		}
		for off := 0; off < len(ps) && len(hosts) < want; off++ {
			p := ps[(r.ReqID+off)%len(ps)]
			take := want - len(hosts)
			if take > p.nACs {
				take = p.nACs
			}
			if take == 0 {
				continue
			}
			if got := p.takeACs(take); hosts == nil {
				hosts = got // the common single-pool grant: no second copy
			} else {
				hosts = append(hosts, got...)
			}
		}
	}
	sc.dynInflight[r.ReqID] = sc.cycleIndex
	sc.mu.Lock()
	if len(hosts) > 0 {
		sc.stats.DynGranted++
	} else {
		sc.stats.DynRejected++
	}
	sc.mu.Unlock()
	sp.Annotate("granted", strconv.FormatBool(len(hosts) > 0))
	sp.End()
	sc.sendCause(pbs.DynAllocCmd{ReqID: r.ReqID, Hosts: hosts, Cause: sp.ID()}, sp.ID())
}

// inflightWindow is how many cycles a placed job (or granted dyn
// request) is suppressed from re-placement while its command may
// still be queued on a server shard. Shard batches drain in a few
// virtual milliseconds, well inside one cycle interval; the second
// cycle of slack covers a kick-coalesced back-to-back iteration.
const inflightWindow = 2

// scheduleStatic places the queued jobs in priority order (the merge of
// order.go ranks only what the walk takes), optionally backfilling
// behind a blocked head. Every examined job costs PerJobCost, one step
// of a walkClock. Once no job behind a blocked head can start — backfill
// is off, or no compute node has a free core — the rest of the queue,
// in-flight jobs free, is charged in one step.
func (sc *Scheduler) scheduleStatic(p *pools, phase *trace.Span) {
	now := sc.sim.Now()
	sc.startOrder(now)
	left, inflight := len(sc.view.Queued), 0 // jobs still to come, and those of them in flight
	for id := range sc.inflight {
		if j := sc.view.Job(id); j != nil && j.Phase == pbs.PhaseQueued {
			inflight++
		}
	}
	clock := walkClock{sim: sc.sim, cost: sc.params.PerJobCost}
	var shadow time.Duration = -1 // earliest start estimate of the blocked head
	for j := sc.nextJob(now); j != nil; j = sc.nextJob(now) {
		left--
		if inflight > 0 && sc.inflight[j.ID] > 0 { // placements are made from cycle 1 on
			inflight--
			continue // allocation still in flight on a server shard
		}
		clock.owed++
		if shadow >= 0 {
			// A head job is blocked; only backfill candidates that
			// finish before its reservation may start.
			if !sc.params.Backfill || p.full() {
				clock.owed += left - inflight
				break
			}
			if j.Spec.Walltime <= 0 || clock.now()+j.Spec.Walltime > shadow {
				continue
			}
		}
		hosts, acc, ok := p.fit(j.Spec, j.ID)
		if !ok {
			if shadow < 0 {
				shadow = shadowTime(sc.view.Running, clock.now())
			}
			// Strict FIFO: the blocked head stalls the queue, but we
			// still pay the examination cost for the remaining jobs
			// (Maui walks the whole queue). With backfill they are
			// examined as candidates behind the head's reservation.
			continue
		}
		clock.settle()
		if shadow >= 0 {
			sc.inst.backfill.Inc()
			sc.mu.Lock()
			sc.stats.Backfilled++
			sc.mu.Unlock()
		}
		sc.place(j, hosts, acc, phase)
	}
	clock.settle()
}

// walkClock is virtual time as a walk of the queue sees it while it
// owes examination steps of PerJobCost: owed of them past the clock. The
// walk charges a job with owed++, and settle lets the clock catch up in
// one SleepSteps, which is owed single sleeps (package sim, "Steps").
//
// A walk settles before any write another actor, the audit digest or
// the tracer can observe: a placement (the AllocCmd, stats, usage,
// maui.placed and maui.backfill_hits, the place span) and a dynamic
// request served in the FIFO ablation. What it writes before settling —
// the pools, the in-flight map, the order — only the scheduler reads,
// and it reads the time only through now. No actor that ran between two
// of the single sleeps saw anything the walk did between them, so every
// write lands at the instant it did and every actor sees the same clock,
// events and state.
type walkClock struct {
	sim  *sim.Simulation
	cost time.Duration
	owed int
}

// now is the instant the walk has reached.
func (w *walkClock) now() time.Duration {
	return w.sim.Now() + time.Duration(w.owed)*max(w.cost, 0)
}

// settle takes the owed steps.
func (w *walkClock) settle() {
	w.sim.SleepSteps(w.cost, w.owed)
	w.owed = 0
}

// schedulePlainFIFO is the DynTopPriority ablation: one stream
// ordered by arrival, dynamic requests not prioritized. The queue and
// the requests each come in arrival order, so the walk merges them, a
// job before a request of the same instant. It charges its
// examinations on a walkClock like scheduleStatic.
func (sc *Scheduler) schedulePlainFIFO(info *pbs.SchedInfoResp, ps []*pools, phase *trace.Span) {
	clock := walkClock{sim: sc.sim, cost: sc.params.PerJobCost}
	q, dyn := sc.view.Queued, info.Dyn
	for len(q)+len(dyn) > 0 {
		if len(q) == 0 || len(dyn) > 0 && dyn[0].ArrivedAt < q[0].SubmittedAt {
			clock.settle()
			sc.serveDyn(dyn[0], ps, phase)
			dyn = dyn[1:]
			continue
		}
		j := q[0]
		q = q[1:]
		if _, ok := sc.inflight[j.ID]; ok {
			continue
		}
		clock.owed++
		if hosts, acc, ok := ps[0].fit(j.Spec, j.ID); ok {
			clock.settle()
			sc.place(j, hosts, acc, phase)
		}
	}
	clock.settle()
}

// shadowTime estimates when the blocked head job could start at virtual
// time now: the latest walltime-predicted end among running jobs
// (conservative EASY reservation).
func shadowTime(running []*pbs.MirrorJob, now time.Duration) time.Duration {
	end := now
	for _, j := range running {
		est := j.StartedAt + j.Spec.Walltime
		if j.StartedAt == 0 {
			est = now + j.Spec.Walltime
		}
		if est > end {
			end = est
		}
	}
	return end
}

// place commits a static allocation: charge fairshare and notify the
// server.
func (sc *Scheduler) place(j *pbs.MirrorJob, hosts []string, acc [][]string, phase *trace.Span) {
	var sp *trace.Span
	if phase != nil {
		sp = phase.Child("place", "job", j.ID, "hosts", strings.Join(hosts, "+"))
	}
	defer sp.End()
	sc.inst.placed.Inc()
	sc.inflight[j.ID] = sc.cycleIndex
	sc.mu.Lock()
	sc.stats.JobsPlaced++
	charge := float64(j.Spec.Nodes) * j.Spec.Walltime.Seconds()
	if charge <= 0 {
		charge = float64(j.Spec.Nodes)
	}
	sc.usage[j.Spec.Owner] += charge
	sc.mu.Unlock()
	sc.sendCause(pbs.AllocCmd{JobID: j.ID, Hosts: hosts, AccHosts: acc, Cause: sp.ID()}, sp.ID())
}

// sendCause sends a command to the server, carrying the trace-span id
// of the scheduling decision that produced it.
func (sc *Scheduler) sendCause(payload any, cause uint64) {
	_ = sc.ep.SendCause(sc.serverEP, "pbs", payload, 0, cause)
}
