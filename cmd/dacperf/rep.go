package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dac"
	"repro/internal/pbs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rep is what one run of a workload measured. Host fields are wall
// clock; exact holds everything that must repeat bit for bit for a
// seed (virtual times and counts readable without a registry).
type rep struct {
	digest uint64        // FNV-64a of the generated input
	run    time.Duration // Run/Serve through drain
	spans  spans

	mallocs    uint64 // MemStats.Mallocs delta over run
	allocBytes uint64 // MemStats.TotalAlloc delta over run
	gcCycles   uint32 // MemStats.NumGC delta over run

	exact exact

	// Set on the traced rep only.
	counts  map[string]float64 // per-layer counts, keyed by metric name
	profile []byte             // gzipped pprof CPU profile of the run interval
}

// spans are dacperf's own phase spans around its calls into the layers.
type spans struct {
	generate, build, submit, drain, teardown time.Duration
}

// setup is what setup_s times: input generation plus everything up to
// the call of Run/Serve.
func (r *rep) setup() time.Duration { return r.spans.generate + r.spans.build }

// exact is compared across the reps of one workload: any difference
// means the run was nondeterministic and fails it.
type exact struct {
	makespan    time.Duration
	cycleMean   time.Duration
	dynP50      time.Duration
	dynTail     time.Duration
	dynTailQ    float64 // the quantile dynTail reports (0.99 with >=1000 samples)
	dynSamples  int
	queueWait   time.Duration // serve-open: service.queue_wait tail
	queueWaitQ  float64
	events      uint64
	msgs        int64
	dropped     int64
	cycles      int64
	placed      int64
	backfilled  int64
	dynGranted  int64
	dynRejected int64
	srvErrors   int
	allocReject int
	purged      uint64
	ops, failed int
}

// tailQuantile picks the highest percentile n samples can support:
// p99 from 1000 samples, otherwise the one with ten samples beyond it.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n > 20:
		return 1 - 10/float64(n)
	default:
		return 0.5
	}
}

func quantileOf(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// observers are the observability objects a rep wired in; nil members
// are the disabled no-op path.
type observers struct {
	reg  *telemetry.Registry
	scr  *telemetry.Scraper
	rec  *audit.Recorder
	tick *audit.Ticker
	trc  *trace.Tracer
}

func (a attach) wire(p *cluster.Params) *observers {
	o := &observers{}
	if a.telemetry {
		o.reg = telemetry.New()
		p.Telemetry = o.reg
	}
	if a.audit {
		o.rec = audit.New(core.AuditCapacity)
		p.Audit = o.rec
	}
	if a.trace {
		o.trc = trace.New()
		p.Tracer = o.trc
	}
	return o
}

// meter brackets the measured interval of a rep: wall clock and
// allocator counters from just before Run/Serve to drain, and the CPU
// profile when the rep is the traced one.
type meter struct {
	t0    time.Time
	m0    runtime.MemStats
	prof  *bytes.Buffer
	drain time.Time
}

func (m *meter) start(profiled bool) error {
	if profiled {
		m.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return nil
}

// stop is called by the root actor the moment the workload has
// drained, before any teardown.
func (m *meter) stop(r *rep) {
	m.drain = time.Now()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.run = m.drain.Sub(m.t0)
	r.mallocs = m1.Mallocs - m.m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m.m0.TotalAlloc
	r.gcCycles = m1.NumGC - m.m0.NumGC
	r.spans.drain = r.run - r.spans.submit
}

// bench is one built instance of a workload: input generated, cluster
// (or service instance) wired on a pooled kernel, nothing started.
// Building it is what setup_s times; run does the rest.
type bench struct {
	d   workloadDef
	s   *sim.Simulation
	c   *cluster.Cluster
	obs *observers
	r   *rep
	m   meter

	// Cluster-driven kinds: submit issues the workload's jobs and
	// returns their ids; failedOps turns the count of jobs that reached
	// JobCompleted into failed ops.
	submit    func(client *pbs.Client) []string
	failedOps func(jobsDone int) int
	led       *dynLedger

	inst *service.Instance // serve-open
}

// build generates d's input from seed and wires everything up to, but
// not including, the call of Run/Serve. extra is attached on top of
// the workload's own observability.
func build(d workloadDef, seed uint64, extra attach) (*bench, error) {
	a := d.obs
	a.telemetry = a.telemetry || extra.telemetry
	a.scrape = a.scrape || extra.scrape
	a.audit = a.audit || extra.audit
	a.trace = a.trace || extra.trace

	b := &bench{d: d, r: &rep{}}
	tGen := time.Now()
	in := d.generate(seed)
	tBuild := time.Now()
	b.r.digest = in.digest

	p := d.params()
	b.obs = a.wire(&p)
	switch d.kind {
	case kindBatch:
		entries, err := workload.ParseSWF(strings.NewReader(in.swf), p.CoresPerNode)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		b.s = sim.Acquire()
		b.c = cluster.New(b.s, p)
		b.r.exact.ops = len(entries)
		// A submit error ends the replay early; the jobs never
		// submitted stay counted as failed ops.
		b.submit = func(client *pbs.Client) []string {
			ids, _ := workload.Replay(b.s, client, entries)
			return ids
		}
		b.failedOps = func(jobsDone int) int { return b.r.exact.ops - jobsDone }
	case kindDyn:
		b.s = sim.Acquire()
		b.c = cluster.New(b.s, p)
		b.r.exact.ops = d.ops()
		b.led = &dynLedger{lat: make([]time.Duration, 0, d.ops())}
		specs := make([]pbs.JobSpec, d.jobs)
		for j := range specs {
			specs[j] = dynSpec(b.s, j, in.think[j], b.led)
		}
		b.submit = func(client *pbs.Client) []string {
			gap := d.window / time.Duration(d.jobs)
			ids := make([]string, 0, d.jobs)
			for j, spec := range specs {
				if wait := gap*time.Duration(j) - b.s.Now(); wait > 0 {
					b.s.Sleep(wait)
				}
				if id, err := client.Submit(spec); err == nil {
					ids = append(ids, id)
				}
			}
			return ids
		}
		// Jobs that did not complete, plus requests that were not
		// granted and freed.
		b.failedOps = func(jobsDone int) int {
			b.led.mu.Lock()
			defer b.led.mu.Unlock()
			return (d.jobs - jobsDone) + (b.r.exact.ops - b.led.granted)
		}
	case kindServe:
		src, err := workload.NewArrivals(in.arrivals)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		b.s = sim.Acquire()
		b.inst, err = service.New(b.s, service.Config{
			Cluster: p,
			Source:  src,
			Horizon: d.window,
			// The probe actor marks the end of the admission window in
			// host time; it issues nothing, so it costs two kernel events.
			Probe: func(*service.Instance) {
				b.s.Sleep(d.window)
				b.r.spans.submit = time.Since(b.m.t0)
			},
		})
		if err != nil {
			b.s.Release()
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		b.c = b.inst.Cluster()
		b.obs.reg = b.inst.Registry()
	}
	if a.scrape {
		b.obs.scr = telemetry.NewScraper(b.obs.reg, b.s, obsInterval)
	}
	if a.audit {
		b.obs.tick = audit.NewTicker(b.obs.rec, b.s, obsInterval)
	}
	b.r.spans.generate = tBuild.Sub(tGen)
	b.r.spans.build = time.Since(tBuild)
	return b, nil
}

// discard drops a built instance that will not run. Release is a
// no-op on a kernel that never ran; the collector reclaims it.
func (b *bench) discard() { b.s.Release() }

// run executes the built workload to drain and tears it down.
// profiled wraps the run interval in a CPU profile and reads the
// per-layer counts. Virtual results must not depend on it.
func (b *bench) run(profiled bool) (*rep, error) {
	r, m, s, c, obs := b.r, &b.m, b.s, b.c, b.obs
	if err := m.start(profiled); err != nil {
		b.discard()
		return nil, err
	}
	var closed time.Time
	var sr service.Report
	runErr := s.Run(func() {
		if b.inst != nil {
			sr = b.inst.Serve() // closes the cluster itself once drained
			m.stop(r)
			closed = m.drain
			return
		}
		obs.scr.Start()
		obs.tick.Start()
		c.Start()
		client := c.Client("front")
		ids := b.submit(client)
		r.spans.submit = time.Since(m.t0)
		jobsDone := 0
		for _, id := range ids {
			if info, err := client.Wait(id); err == nil && info.State == pbs.JobCompleted {
				jobsDone++
			}
		}
		obs.tick.Stop()
		obs.scr.Stop()
		r.exact.failed = b.failedOps(jobsDone)
		r.exact.makespan = s.Now()
		m.stop(r)
		c.Close()
		closed = time.Now()
	})
	if m.prof != nil {
		pprof.StopCPUProfile()
		r.profile = m.prof.Bytes()
	}

	e := &r.exact
	switch b.d.kind {
	case kindDyn:
		lat := b.led.lat
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		e.dynSamples = len(lat)
		e.dynTailQ = tailQuantile(e.dynSamples)
		e.dynP50, e.dynTail = quantileOf(lat, 0.5), quantileOf(lat, e.dynTailQ)
	case kindServe:
		e.ops, e.failed = sr.Submitted, sr.Submitted-sr.Completed
		e.makespan = sr.Makespan
		dyn := obs.reg.Histogram("pbs.dyn_latency")
		e.dynSamples = int(dyn.Count())
		e.dynTailQ = tailQuantile(e.dynSamples)
		e.dynP50, e.dynTail = dyn.Quantile(0.5), dyn.Quantile(e.dynTailQ)
		qw := obs.reg.Histogram("service.queue_wait")
		e.queueWaitQ = tailQuantile(int(qw.Count()))
		e.queueWait = qw.Quantile(e.queueWaitQ)
	}

	// Counters that need no registry; read before the kernel is reset.
	e.events = s.Dispatches()
	ns := c.Net.Stats()
	e.msgs, e.dropped = ns.MessagesSent, ns.Dropped
	if c.Sched != nil {
		st := c.Sched.Stats()
		e.cycleMean = st.CycleTimeMean()
		e.cycles, e.placed, e.backfilled = st.Cycles, st.JobsPlaced, st.Backfilled
		e.dynGranted, e.dynRejected = st.DynGranted, st.DynRejected
	}
	errs := c.Server.Errors()
	e.srvErrors = len(errs)
	for _, msg := range errs {
		if strings.HasPrefix(msg, "AllocCmd ") {
			e.allocReject++
		}
	}
	e.purged = c.Server.JobRecords().Purged
	if profiled {
		r.counts = layerCounts(r, obs)
		if b.inst != nil {
			r.counts["service.admit_batches"] = float64(sr.Stats.Batches)
			r.counts["service.recycled"] = float64(sr.Stats.Recycled)
			r.counts["telemetry.windows"] = float64(len(sr.Windows))
		}
	}
	t := time.Now()
	s.Release()
	r.spans.teardown = closed.Sub(m.drain) + time.Since(t)
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", b.d.name, runErr)
	}
	return r, nil
}

// runRep builds and runs one rep of d. Every rep starts from a
// collected heap, so one rep's garbage is not charged to the next
// one's allocator or GC.
func runRep(d workloadDef, seed uint64, extra attach, profiled bool) (*rep, error) {
	runtime.GC()
	b, err := build(d, seed, extra)
	if err != nil {
		return nil, err
	}
	return b.run(profiled)
}

// dynLedger collects what the dyn-storm job scripts observed. Scripts
// run as separate actors, so appends take the lock.
type dynLedger struct {
	mu      sync.Mutex
	granted int
	lat     []time.Duration
}

// dynSpec is one dyn-storm job: AC_Init, then a closed loop of
// AC_Get(2) / hold / AC_Free / think, then AC_Finalize. A request
// counts as done only when both the get and the free succeeded.
func dynSpec(s *sim.Simulation, j int, think []time.Duration, led *dynLedger) pbs.JobSpec {
	return pbs.JobSpec{
		Name: fmt.Sprintf("storm-%d", j), Owner: fmt.Sprintf("user%d", j%16),
		Nodes: 1, PPN: 4, Walltime: time.Hour,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				return
			}
			granted := 0
			for _, t := range think {
				if id, _, err := ac.Get(dynACs); err == nil {
					s.Sleep(dynHold)
					if ac.Free(id) == nil {
						granted++
					}
				}
				s.Sleep(t)
			}
			st := ac.Stats()
			// Finalize only disconnects daemons this job no longer
			// holds; its error would repeat a failed Free counted above.
			_ = ac.Finalize()
			led.mu.Lock()
			led.granted += granted
			for _, g := range st.Gets {
				if !g.Rejected {
					led.lat = append(led.lat, g.Batch+g.MPI)
				}
			}
			led.mu.Unlock()
		},
	}
}

// layerCounts reads the per-layer counts of the traced rep: the
// registry's counters where a layer only publishes there, public
// Stats() elsewhere.
func layerCounts(r *rep, obs *observers) map[string]float64 {
	ops := float64(max(r.exact.ops, 1))
	// Instrument names stay literal at each call: the metricname
	// analyzer rejects names assembled at run time.
	val := func(c *telemetry.Counter) float64 { return float64(c.Value()) }
	reg := obs.reg
	e := &r.exact
	m := map[string]float64{
		"sim.events":         float64(e.events),
		"sim.events_per_op":  float64(e.events) / ops,
		"sim.ns_per_event":   float64(r.run.Nanoseconds()) / float64(max(e.events, 1)),
		"netsim.msgs":        float64(e.msgs),
		"netsim.msgs_per_op": float64(e.msgs) / ops,
		"netsim.dropped":     float64(e.dropped),

		"pbs.submits":        val(reg.Counter("pbs.submits")),
		"pbs.jobs_done":      val(reg.Counter("pbs.jobs_done")),
		"pbs.rpc_batches":    val(reg.Counter("pbs.rpc_batches")),
		"pbs.dyn_granted":    val(reg.Counter("pbs.dyn_granted")),
		"pbs.dyn_rejected":   val(reg.Counter("pbs.dyn_rejected")),
		"pbs.server_errors":  float64(e.srvErrors),
		"pbs.records_purged": float64(e.purged),

		"maui.cycles":           float64(e.cycles),
		"maui.cycles_per_op":    float64(e.cycles) / ops,
		"maui.placed":           float64(e.placed),
		"maui.backfill_hits":    float64(e.backfilled),
		"maui.idle_cycle_share": val(reg.Counter("maui.idle_cycles")) / float64(max(e.cycles, 1)),

		"dac.attach": val(reg.Counter("dac.attach")),
		"dac.detach": val(reg.Counter("dac.detach")),

		"service.admit_batches": 0,
		"service.recycled":      0,

		"telemetry.windows":   float64(len(obs.scr.Windows())),
		"audit.events":        float64(obs.rec.Len()),
		"audit.breaches":      float64(obs.rec.Breaches()),
		"trace.spans":         0,
		"trace.dropped_spans": float64(obs.trc.Dropped()),
	}
	// Jobs started over AllocCmds sent: the share of the scheduler's
	// placements the server accepted (1 on the faithful server).
	started := val(reg.Counter("pbs.jobs_done"))
	m["maui.alloc_accept_ratio"] = started / max(started+float64(e.allocReject), 1)
	for _, ev := range obs.trc.Events() {
		if ev.Kind == trace.KindSpan {
			m["trace.spans"]++
		}
	}
	return m
}
