// Package service runs the cluster as a resident online system: a
// long-running instance wrapping a live simulation kernel plus the
// pbs/maui/netsim actors, fed by an open-loop submission stream
// instead of a pre-materialized trace. Where the figure experiments
// build a cluster per data point, replay a fixed workload, and tear
// everything down, an Instance stays up: a deterministic arrival
// process (or an SWF replay source) pushes jobs through an admission
// pipeline that batches submissions per virtual tick, completed job
// records recycle through pools at every layer, and the telemetry
// scraper turns the steady state into SLO windows — the operational
// view of the paper's system that the offline figures cannot give.
//
// Determinism contract: everything an Instance does — admission
// batching, record recycling, scrape windows, the final report — is
// driven by virtual time and the seeded source, so a run is
// byte-identical at every core.SetParallelism level and under both
// server architectures' invariant audits.
package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// AdmitTick is the admission batching quantum: the pump wakes at tick
// boundaries and submits everything due since the last one back to
// back, amortizing the per-job wakeup the way the sharded server
// batches RPCs.
const AdmitTick = 50 * time.Millisecond

// Defaults for the fields of Config and of its Cluster.Server left
// zero: the scrape window, and the server's terminal-record window and
// accounting log, which a resident instance must bound.
const (
	DefaultScrapeInterval  = 5 * time.Second
	DefaultRetainCompleted = 4096
	DefaultAcctRing        = 4096
)

// Service-layer instrument names (the telemetry registry takes
// constant names).
const (
	metricSubmitted  = "service.submitted"
	metricCompleted  = "service.completed"
	metricActive     = "service.active"
	metricTurnaround = "service.turnaround"
	metricQueueWait  = "service.queue_wait"
	metricBatches    = "service.admit_batches"
)

// Config parameterizes a resident instance.
type Config struct {
	// Cluster is the machine shape and cost model. Telemetry, Tracer,
	// and Audit pass through; when Telemetry is nil the instance
	// installs a private registry (required for scraping). A zero
	// Server.RetainCompleted or Server.AcctRing is DefaultRetainCompleted
	// or DefaultAcctRing.
	Cluster cluster.Params
	// Source feeds the admission pipeline (required). workload.Arrivals
	// for synthetic open-loop streams, workload.TraceSource for
	// replay-from-SWF.
	Source workload.Source
	// Horizon stops admission at this virtual time; 0 runs the source
	// dry. Either way Run drains in-flight jobs before returning.
	Horizon time.Duration
	// ScrapeInterval is the telemetry window length (0 means
	// DefaultScrapeInterval); MaxWindows caps the series.
	ScrapeInterval time.Duration
	MaxWindows     int
	// Objectives are evaluated over the scrape windows
	// (DefaultObjectives when nil).
	Objectives []telemetry.Objective
	// Probe, when set, runs as its own actor once the instance is
	// serving; use it to issue queries or extra submissions mid-run.
	Probe func(*Instance)
}

// QueueSnapshot is the instance's O(1) qstat-style queue view.
type QueueSnapshot struct {
	Queued  int // admitted, not yet started
	Running int // started, not yet finished
	At      time.Duration
}

// Stats is the instance's cumulative view.
type Stats struct {
	Submitted uint64
	Completed uint64
	Recycled  uint64 // job-tracking records reused from the pool
	Compacted int    // active-index rebuilds
	Batches   uint64 // admission batches submitted
	Queued    int
	Running   int
}

// JobStatus is the service-side view of one job.
type JobStatus struct {
	ID          string
	Name        string
	State       pbs.JobState
	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// Report is what a completed Run returns.
type Report struct {
	Submitted  int
	Completed  int
	Makespan   time.Duration // virtual time at drain
	Dispatches uint64        // kernel events the run dispatched
	Windows    []telemetry.Window
	Compliance []telemetry.Compliance
	Stats      Stats
	Records    pbs.JobRecordStats // server-side retention economy
}

// jobRec tracks one admitted job. Records recycle through a free
// list, so steady state allocates none.
type jobRec struct {
	id          string
	name        string
	submittedAt time.Duration
	startedAt   time.Duration
	finishedAt  time.Duration
	started     bool
	finished    bool
}

// Instance is the resident cluster engine.
type Instance struct {
	cfg   Config
	sim   *sim.Simulation
	reg   *telemetry.Registry
	clu   *cluster.Cluster
	scr   *telemetry.Scraper
	pump  *pbs.Client // admission pipeline's connection
	query *pbs.Client // Submit/JobStatus from probe actors
	drain *sim.Gate

	recs      map[string]*jobRec
	freeRecs  []*jobRec
	tomb      int // deletions since the last index rebuild
	submitted uint64
	completed uint64
	recycled  uint64
	compacted int
	batches   uint64
	queued    int
	running   int
	sourceDry bool

	submits    *telemetry.Counter
	completes  *telemetry.Counter
	active     *telemetry.Gauge
	turnaround *telemetry.Histogram
	queueWait  *telemetry.Histogram
	batchCtr   *telemetry.Counter
}

// DefaultObjectives is the steady-state SLO set the serve mode
// reports: dynamic-request latency tail (p50/p99/p999), scheduler
// cycle cost and occupancy, and a queue-depth ceiling that catches an
// open-loop rate the cluster cannot absorb. Like the slo figure's
// set, the occupancy bound is deliberately tight — a scheduler with
// any work breaches it, exercising the first-breach timestamp.
func DefaultObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{Name: "dyn-p50", Instrument: "pbs.dyn_latency", Stat: telemetry.StatP50, Max: 0.150},
		{Name: "dyn-p99", Instrument: "pbs.dyn_latency", Stat: telemetry.StatP99, Max: 0.250},
		{Name: "dyn-p999", Instrument: "pbs.dyn_latency", Stat: telemetry.StatP999, Max: 0.400},
		{Name: "cycle-mean", Instrument: "maui.cycle", Stat: telemetry.StatMean, Max: 0.050},
		{Name: "sched-occupancy", Instrument: "maui.occupancy", Stat: telemetry.StatDelta, Max: 0.02},
		{Name: "queue-depth", Instrument: "pbs.queue_depth", Stat: telemetry.StatTotal, Max: 512},
	}
}

// New wires a resident instance onto the simulation: cluster, private
// registry (unless the params carry one), scraper, and the two IFL
// connections. Call Run to serve.
func New(s *sim.Simulation, cfg Config) (*Instance, error) {
	if cfg.Source == nil {
		return nil, errors.New("service: Config.Source is required")
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = DefaultScrapeInterval
	}
	if cfg.Objectives == nil {
		cfg.Objectives = DefaultObjectives()
	}
	tp := cfg.Cluster
	if tp.Server.RetainCompleted == 0 {
		tp.Server.RetainCompleted = DefaultRetainCompleted
	}
	if tp.Server.AcctRing == 0 {
		tp.Server.AcctRing = DefaultAcctRing
	}
	reg := tp.Telemetry
	if reg == nil {
		reg = telemetry.New()
		tp.Telemetry = reg
	}
	c := cluster.New(s, tp)
	scr := telemetry.NewScraper(reg, s, cfg.ScrapeInterval)
	scr.MaxWindows = cfg.MaxWindows
	return &Instance{
		cfg:        cfg,
		sim:        s,
		reg:        reg,
		clu:        c,
		scr:        scr,
		pump:       c.Client("service/pump"),
		query:      c.Client("service/query"),
		drain:      s.NewGate("service/drain"),
		recs:       make(map[string]*jobRec),
		submits:    reg.Counter(metricSubmitted),
		completes:  reg.Counter(metricCompleted),
		active:     reg.Gauge(metricActive),
		turnaround: reg.Histogram(metricTurnaround),
		queueWait:  reg.Histogram(metricQueueWait),
		batchCtr:   reg.Counter(metricBatches),
	}, nil
}

// Cluster exposes the wired cluster (read-only use from probes).
func (i *Instance) Cluster() *cluster.Cluster { return i.clu }

// Registry exposes the instance's telemetry registry.
func (i *Instance) Registry() *telemetry.Registry { return i.reg }

// Run serves the stream: start the actors, pump admissions until the
// source dries (or the horizon passes), drain in-flight jobs, stop
// the scraper, and report. It must be the root of a s.Run call — use
// sim.Acquire/Release around it exactly like the figure experiments.
func Run(cfg Config) (Report, error) {
	s := sim.Acquire()
	defer s.Release()
	inst, err := New(s, cfg)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	runErr := s.Run(func() {
		rep = inst.Serve()
	})
	if runErr != nil {
		return rep, fmt.Errorf("service: %w", runErr)
	}
	return rep, nil
}

// Serve is the body of Run for callers that manage the kernel
// themselves: it blocks (in virtual time) until the stream is served
// and drained, then returns the report.
func (i *Instance) Serve() Report {
	defer i.clu.Close()
	i.scr.Start()
	i.clu.Start()
	if i.cfg.Probe != nil {
		i.sim.Go("service/probe", func() { i.cfg.Probe(i) })
	}
	i.pumpLoop()
	i.awaitDrain()
	i.scr.Stop()

	stats := i.ServiceStats()
	windows := i.scr.Windows()
	return Report{
		Submitted:  int(stats.Submitted),
		Completed:  int(stats.Completed),
		Makespan:   i.sim.Now(),
		Dispatches: i.sim.Dispatches(),
		Windows:    windows,
		Compliance: telemetry.Evaluate(windows, i.cfg.Objectives),
		Stats:      stats,
		Records:    i.clu.Server.JobRecords(),
	}
}

// pumpLoop is the admission pipeline: wake at tick boundaries, submit
// everything due since the last one back to back. Submissions pay
// their IFL round trips consecutively (the batch amortization), and
// the pump never wakes for an empty tick — it sleeps straight to the
// tick covering the next arrival.
func (i *Instance) pumpLoop() {
	e, ok := i.cfg.Source.Next()
	for ok {
		if i.cfg.Horizon > 0 && e.At > i.cfg.Horizon {
			break
		}
		// Tick boundary covering the next due arrival.
		tickEnd := (e.At/AdmitTick + 1) * AdmitTick
		if wait := tickEnd - i.sim.Now(); wait > 0 {
			i.sim.Sleep(wait)
		}
		n := 0
		for ok && e.At <= tickEnd {
			if i.cfg.Horizon > 0 && e.At > i.cfg.Horizon {
				break
			}
			i.admit(e)
			n++
			e, ok = i.cfg.Source.Next()
		}
		if n > 0 {
			i.batches++
			i.batchCtr.Inc()
		}
	}
	i.sourceDry = true
	i.drain.Broadcast()
}

// admit submits one entry through the pump connection. An admission
// error (invalid spec in the stream) is dropped: the job never enters
// the ledger, so drain accounting stays exact.
func (i *Instance) admit(e workload.TraceEntry) {
	_, _ = i.submitTracked(i.pump, e.Spec(i.sim))
}

// submitTracked wraps the spec's script with the start/finish ledger
// hooks — in-process bookkeeping that costs the server no extra
// traffic — and submits it on the given connection. The record is
// allocated before the submission round trip, so the hooks can never
// observe a half-built record: the script only starts after the
// scheduler places the job, which is causally after Submit returns.
func (i *Instance) submitTracked(cl *pbs.Client, spec pbs.JobSpec) (string, error) {
	r := i.acquireRec()
	inner := spec.Script
	spec.Script = func(env *pbs.JobEnv) {
		i.noteStart(r)
		if inner != nil {
			inner(env)
		}
		i.noteFinish(r)
	}
	id, err := cl.Submit(spec)
	if err != nil {
		i.releaseRec(r)
		return "", err
	}
	r.id = id
	r.name = spec.Name
	r.submittedAt = i.sim.Now()
	i.recs[id] = r
	i.submitted++
	i.queued++
	i.submits.Inc()
	i.active.Set(float64(i.queued + i.running))
	return id, nil
}

// noteStart flips a record to running (called from the job's own
// actor on its first simulated instruction).
func (i *Instance) noteStart(r *jobRec) {
	if r == nil {
		return
	}
	if !r.started {
		r.started = true
		r.startedAt = i.sim.Now()
		i.queued--
		i.running++
	}
	i.queueWait.Record(r.startedAt - r.submittedAt)
}

// noteFinish retires a record: stats, ledger removal, recycling, and
// the periodic O(active) index compaction.
func (i *Instance) noteFinish(r *jobRec) {
	if r == nil {
		return
	}
	now := i.sim.Now()
	if r.finished {
		return
	}
	r.finished = true
	r.finishedAt = now
	turn := now - r.submittedAt
	i.running--
	i.completed++
	delete(i.recs, r.id)
	i.tomb++
	i.releaseRec(r)
	// Go maps never shrink; once deletions dominate the live set,
	// rebuild so a 10-million-job soak holds the index at O(active).
	if i.tomb > 4096 && i.tomb > 2*len(i.recs) {
		next := make(map[string]*jobRec, len(i.recs)*2)
		for k, v := range i.recs {
			next[k] = v
		}
		i.recs = next
		i.tomb = 0
		i.compacted++
	}
	act := i.queued + i.running
	i.turnaround.Record(turn)
	i.completes.Inc()
	i.active.Set(float64(act))
	if act == 0 && i.sourceDry {
		i.drain.Broadcast()
	}
}

// awaitDrain blocks until the source is dry and no admitted job is
// still queued or running.
func (i *Instance) awaitDrain() {
	for !i.sourceDry || i.queued+i.running > 0 {
		i.drain.Wait(nil)
	}
}

// acquireRec pops a recycled record or allocates one.
func (i *Instance) acquireRec() *jobRec {
	if n := len(i.freeRecs); n > 0 {
		r := i.freeRecs[n-1]
		i.freeRecs[n-1] = nil
		i.freeRecs = i.freeRecs[:n-1]
		i.recycled++
		*r = jobRec{}
		return r
	}
	return &jobRec{}
}

// releaseRec returns a finished record to the pool.
func (i *Instance) releaseRec(r *jobRec) {
	i.freeRecs = append(i.freeRecs, r)
}

// Submit injects an ad-hoc job through the query connection — the
// qsub of the running service. Call it from a Probe (or any actor);
// the job is tracked like pumped admissions.
func (i *Instance) Submit(spec pbs.JobSpec) (string, error) {
	return i.submitTracked(i.query, spec)
}

// JobStatus reports one job, from the instance ledger when the job is
// still active, falling back to a qstat round trip for jobs the
// ledger has already retired (subject to the server's retention
// window).
func (i *Instance) JobStatus(id string) (JobStatus, error) {
	if r, ok := i.recs[id]; ok {
		st := JobStatus{
			ID: r.id, Name: r.name,
			SubmittedAt: r.submittedAt, StartedAt: r.startedAt, FinishedAt: r.finishedAt,
		}
		if r.started {
			st.State = pbs.JobRunning
		}
		return st, nil
	}
	info, err := i.query.Stat(id)
	if err != nil {
		return JobStatus{}, err
	}
	return JobStatus{
		ID: info.ID, Name: info.Spec.Name, State: info.State,
		SubmittedAt: info.SubmittedAt, StartedAt: info.StartedAt, FinishedAt: info.CompletedAt,
	}, nil
}

// Queue returns the O(1) queue snapshot.
func (i *Instance) Queue() QueueSnapshot {
	return QueueSnapshot{Queued: i.queued, Running: i.running, At: i.sim.Now()}
}

// ServiceStats returns the cumulative counters.
func (i *Instance) ServiceStats() Stats {
	return Stats{
		Submitted: i.submitted,
		Completed: i.completed,
		Recycled:  i.recycled,
		Compacted: i.compacted,
		Batches:   i.batches,
		Queued:    i.queued,
		Running:   i.running,
	}
}
