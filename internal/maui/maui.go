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
	// Partitions sets only the cost model of the one global walk: each
	// examined job costs PerJobCost/Partitions, as if that many workers
	// scored candidates at once. The walk's rules stay the same. 0 or 1
	// is the paper's serial cycle, every queued job costing PerJobCost,
	// which grows linearly with the backlog (the Figure 8 serialization).
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
	net    *netsim.Network
	sim    *sim.Simulation
	ep     *netsim.Endpoint
	server netsim.Addr
	params Params
	inst   schedInstruments
	// aud is the flight recorder (nil when auditing is off), and
	// auditAfterCycle is a test hook run after each cycle's checks. See
	// audit.go.
	aud             *audit.Recorder
	auditAfterCycle func()

	// usage is the fairshare ledger, decayed node-seconds by owner:
	// owners gives an owner its index when first charged.
	owners map[string]int
	usage  []float64
	stats  Stats

	heads heads // the cycle's priority order (order.go): scheduler actor only

	// view mirrors the server's nodes and jobs (each cycle's fetch brings
	// only what changed, see pbs.Mirror.Fetch) and pool indexes it. See
	// pools.go.
	view pbs.Mirror
	pool *pools
	out  pbs.Outbox // the commands it sends
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
		net:    net,
		sim:    net.Sim(),
		ep:     net.Endpoint(params.Endpoint),
		server: net.Resolve(serverEP),
		params: params,
		owners: make(map[string]int),
		inst: schedInstruments{
			cycle:      reg.Histogram("maui.cycle"),
			occupancy:  reg.Occupancy("maui.occupancy"),
			queueDepth: reg.Gauge("maui.queue_depth"),
			placed:     reg.Counter("maui.placed"),
			backfill:   reg.Counter("maui.backfill_hits"),
			idle:       reg.Counter("maui.idle_cycles"),
		},
	}
	sc.pool = &pools{view: &sc.view}
	sc.registerAudit()
	return sc
}

// Endpoint returns the scheduler's fabric name.
func (sc *Scheduler) Endpoint() string { return sc.ep.Name() }

// Stats returns a snapshot of scheduler counters.
func (sc *Scheduler) Stats() Stats {
	return sc.stats
}

// Usage returns the decayed fairshare usage of an owner.
func (sc *Scheduler) Usage(owner string) float64 {
	if i, ok := sc.owners[owner]; ok {
		return sc.usage[i]
	}
	return 0
}

// owner returns the owner's index in the ledger, indexing a new owner.
func (sc *Scheduler) owner(name string) int {
	i, ok := sc.owners[name]
	if !ok {
		i = len(sc.usage)
		sc.owners[name] = i
		sc.usage = append(sc.usage, 0)
	}
	return i
}

// Start spawns the scheduler actor: cycles run on kicks from the
// server and at least every CycleInterval.
func (sc *Scheduler) Start() {
	sc.sim.Go("maui", func() {
		for {
			_, err := sc.ep.RecvTimeout(sc.params.CycleInterval)
			if err != nil && !errors.Is(err, netsim.ErrTimeout) {
				return
			}
			// Coalesce pending kicks: one cycle serves them all.
			for sc.ep.Pending() > 0 {
				if _, err := sc.ep.Recv(); err != nil {
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
		sc.stats.CycleTimeTotal += d
		if d > sc.stats.CycleTimeMax {
			sc.stats.CycleTimeMax = d
		}
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
// state — fairshare, node mirror, pools — up to it; schedule then
// decides on exactly that state. The server answers on the station
// that took this scheduler's commands (pbs.Server.shardFor), so the
// answer already holds every placement and grant sent before it.
func (sc *Scheduler) beginCycle(cyc *trace.Span) (*pbs.SchedInfoResp, error) {
	fetch := cyc.Child("fetch")
	info, err := sc.view.Fetch(sc.ep, &sc.server)
	fetch.End()
	if err != nil {
		return nil, err
	}
	sc.auditSnapshot(info)
	sc.sim.Sleep(sc.params.CycleOverhead)
	sc.stats.Cycles++
	if sc.params.FairshareDecay > 0 {
		for i := range sc.usage {
			sc.usage[i] *= sc.params.FairshareDecay
		}
	}
	if info.Queued == 0 && len(info.Dyn) == 0 {
		sc.inst.idle.Inc()
	}

	// Undo what the previous cycle charged tentatively, then take in
	// the nodes that changed.
	pb := cyc.Child("pools")
	sc.pool.rollback()
	for i := range info.Nodes {
		sc.pool.sync(info.Nodes[i].Index)
	}
	pb.End()
	sc.inst.queueDepth.Set(float64(info.Queued))
	return info, nil
}

// schedule runs the cycle's placement phases against the pool.
func (sc *Scheduler) schedule(info *pbs.SchedInfoResp, cyc *trace.Span) {
	if !sc.params.DynTopPriority {
		// Ablation: merge dynamic requests into the FIFO stream by
		// arrival time — they wait behind earlier static submissions.
		fifo := cyc.Child("fifo")
		sc.schedulePlainFIFO(info, fifo)
		fifo.End()
		return
	}
	dyn := cyc.Child("dyn")
	for _, r := range info.Dyn {
		sc.serveDyn(r, dyn)
	}
	dyn.End()
	st := cyc.Child("static")
	sc.scheduleStatic(st)
	st.End()
}

// serveDyn schedules one dynamic request against the pool. Compute-kind
// requests are all-or-nothing; an accelerator request short of supply is
// rejected unless PartialAlloc grants what there is.
func (sc *Scheduler) serveDyn(r pbs.SchedDynView, phase *trace.Span) {
	var sp *trace.Span
	if phase != nil {
		sp = phase.Child("sched.dyn", "job", r.JobID, "req", strconv.Itoa(r.ReqID), "count", strconv.Itoa(r.Count))
	}
	sc.sim.Sleep(sc.params.DynPerReqCost)
	var hosts []string
	if r.Kind == pbs.KindCompute {
		hosts = sc.pool.takeCNs(r.Count, r.PPN, r.JobID)
	} else {
		want := r.Count
		if want > sc.pool.nACs {
			want = 0
			if sc.params.PartialAlloc {
				want = sc.pool.nACs
			}
		}
		if want > 0 {
			hosts = sc.pool.takeACs(want)
		}
	}
	if len(hosts) > 0 {
		sc.stats.DynGranted++
	} else {
		sc.stats.DynRejected++
	}
	sp.Annotate("granted", strconv.FormatBool(len(hosts) > 0))
	sp.End()
	sc.sendCause(pbs.Take(&sc.out, pbs.DynAllocCmd{ReqID: r.ReqID, Hosts: hosts, Cause: sp.ID()}), sp.ID())
}

// scheduleStatic places the queued jobs in priority order (the merge of
// order.go ranks only what the walk takes), optionally backfilling
// behind a blocked head. Every examined job costs one step of the
// cycle's walkClock. Once no job behind a blocked head can start —
// backfill is off, or no compute node has a free core — the rest of the
// queue is charged in one step.
func (sc *Scheduler) scheduleStatic(phase *trace.Span) {
	now := sc.sim.Now()
	sc.startOrder(now)
	left := len(sc.view.Queued) // jobs still to come
	clock := sc.clock()
	var shadow time.Duration = -1 // earliest start estimate of the blocked head
	for j := sc.nextJob(now); j != nil; j = sc.nextJob(now) {
		left--
		clock.owed++
		if shadow >= 0 {
			// A head job is blocked; only backfill candidates that
			// finish before its reservation may start.
			if !sc.params.Backfill || sc.pool.full() {
				clock.owed += left
				break
			}
			if j.Spec.Walltime <= 0 || clock.now()+j.Spec.Walltime > shadow {
				continue
			}
		}
		hosts, acc, ok := sc.pool.fit(j.Spec, j.ID)
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
			sc.stats.Backfilled++
		}
		sc.place(j, hosts, acc, phase)
	}
	clock.settle()
}

// walkClock is virtual time as a walk of the queue sees it while it
// owes examination steps: owed of them past the clock. The
// walk charges a job with owed++, and settle lets the clock catch up in
// one SleepSteps, which is owed single sleeps (package sim, "Steps").
//
// A walk settles before any write another actor, the audit digest or
// the tracer can observe: a placement (the AllocCmd, stats, usage,
// maui.placed and maui.backfill_hits, the place span) and a dynamic
// request served in the FIFO ablation. What it writes before settling —
// the pools and the order — only the scheduler reads,
// and it reads the time only through now. No actor that ran between two
// of the single sleeps saw anything the walk did between them, so every
// write lands at the instant it did and every actor sees the same clock,
// events and state.
type walkClock struct {
	sim  *sim.Simulation
	cost time.Duration
	owed int
}

// clock starts a walk's clock. A step is PerJobCost/Partitions
// (Params.Partitions), the same in both walks.
func (sc *Scheduler) clock() walkClock {
	return walkClock{sim: sc.sim, cost: sc.params.PerJobCost / time.Duration(max(sc.params.Partitions, 1))}
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
func (sc *Scheduler) schedulePlainFIFO(info *pbs.SchedInfoResp, phase *trace.Span) {
	clock := sc.clock()
	q, dyn := sc.view.Queued, info.Dyn
	for len(q)+len(dyn) > 0 {
		if len(q) == 0 || len(dyn) > 0 && dyn[0].ArrivedAt < q[0].SubmittedAt {
			clock.settle()
			sc.serveDyn(dyn[0], phase)
			dyn = dyn[1:]
			continue
		}
		j := q[0]
		q = q[1:]
		clock.owed++
		if hosts, acc, ok := sc.pool.fit(j.Spec, j.ID); ok {
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
	sc.stats.JobsPlaced++
	charge := float64(j.Spec.Nodes) * j.Spec.Walltime.Seconds()
	if charge <= 0 {
		charge = float64(j.Spec.Nodes)
	}
	sc.usage[sc.owner(j.Spec.Owner)] += charge
	sc.sendCause(pbs.Take(&sc.out, pbs.AllocCmd{JobID: j.ID, Hosts: hosts, AccHosts: acc, Cause: sp.ID()}), sp.ID())
}

// sendCause sends a command to the server, carrying the trace-span id
// of the scheduling decision that produced it.
func (sc *Scheduler) sendCause(payload any, cause uint64) {
	if sc.ep.SendTo(&sc.server, "pbs", payload, 0, cause) != nil {
		pbs.Recycle(payload)
	}
}
