// Package cluster assembles the simulated DAC testbed: the fabric,
// the MPI runtime, the DAC context with its GPU devices, the extended
// TORQUE server and moms, and the Maui scheduler — the counterpart of
// the paper's 8-node evaluation platform (one head node running
// pbs_server and Maui, seven nodes used as compute nodes or
// network-attached accelerators).
package cluster

import (
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/dac"
	"repro/internal/maui"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Params configures the testbed's shape and its calibrated cost
// model. The defaults are tuned so the four evaluation figures of the
// paper reproduce in shape and sub-second magnitude; every knob is a
// single additive latency, so the calibration is transparent.
type Params struct {
	// Shape.
	ComputeNodes int
	Accelerators int
	CoresPerNode int

	// Fabric.
	NetLatency      time.Duration
	NetBandwidthBps float64
	PipelineChunk   int
	// LatencyJitter adds ±fraction noise to transfer times; Seed
	// selects the reproducible noise stream. With jitter the paper's
	// 10-trial averaging becomes meaningful (distinct seeds per
	// trial); zero keeps the simulation exactly deterministic.
	LatencyJitter float64
	Seed          uint64

	// Daemons and policies.
	Server pbs.ServerParams
	Mom    pbs.MomParams
	Maui   maui.Params
	MPI    mpi.Config
	DAC    dac.Params

	// MakeScheduler, when non-nil, replaces the Maui scheduler with a
	// custom implementation (e.g. TORQUE's basic FIFO pbs_sched from
	// package fifosched) — the paper's portability claim that any
	// scheduler capable of dynamic allocation integrates with the
	// extended TORQUE (Section V).
	MakeScheduler func(net *netsim.Network, serverEP string) SchedulerDaemon

	// Tracer, when non-nil, is installed on the simulation before any
	// daemon is built, so every layer (netsim, pbs, maui, dac) records
	// spans and metrics into it. Nil disables tracing at no cost. A
	// tracer records one simulation at a time and takes no lock: the
	// core drivers open one per run through Observers, and run one at a
	// time the runs that share one left here (Observers.Shares).
	Tracer *trace.Tracer

	// Telemetry, when non-nil, is installed on the simulation before
	// any daemon is built, so every layer resolves its live-metrics
	// instruments at construction. Scrape it with telemetry.NewScraper
	// over the simulation's clock. Nil disables telemetry at no cost.
	// Like Tracer, a registry records one simulation.
	Telemetry *telemetry.Registry

	// Audit, when non-nil, is installed on the simulation before any
	// daemon is built, so every layer records state-delta events into
	// the flight recorder, registers its state digests, and runs the
	// cycle-boundary invariant checks. Nil disables auditing at no
	// cost. Drive periodic digests with audit.NewTicker over the
	// simulation's clock. Like Tracer, a recorder records one
	// simulation.
	Audit *audit.Recorder
}

// SchedulerDaemon is what the cluster needs from a scheduler: a
// fabric endpoint for kicks and an actor to start.
type SchedulerDaemon interface {
	Start()
	Endpoint() string
}

// Default returns the calibrated testbed configuration: 1 compute
// node and 6 accelerators (the shape of Figures 7(a) and 7(b));
// experiments needing more compute nodes override the shape.
func Default() Params {
	mp := maui.DefaultParams()
	mp.CycleInterval = time.Second
	// The fixed cycle cost (queue retrieval, priority setup) and the
	// per-request cost drive the batch-system share of Figure 7(b)
	// and the load-dependent waiting of Figure 8.
	mp.CycleOverhead = 150 * time.Millisecond
	mp.PerJobCost = 25 * time.Millisecond
	mp.DynPerReqCost = 25 * time.Millisecond
	return Params{
		ComputeNodes: 1,
		Accelerators: 6,
		CoresPerNode: 8,

		NetLatency:      200 * time.Microsecond,
		NetBandwidthBps: 1.25e9, // ~10 Gb/s class interconnect
		PipelineChunk:   1 << 20,

		Server: pbs.ServerParams{Processing: 3 * time.Millisecond},
		Mom: pbs.MomParams{
			JoinCost:    4 * time.Millisecond,
			DynJoinCost: 35 * time.Millisecond,
			StartCost:   5 * time.Millisecond,
		},
		Maui: mp,
		MPI: mpi.Config{
			ProcStartup:     110 * time.Millisecond,
			ConnectOverhead: 8 * time.Millisecond,
			MergeOverhead:   6 * time.Millisecond,
			SpawnOverhead:   10 * time.Millisecond,
			ControlBytes:    256,
		},
		DAC: dac.DefaultParams(),
	}
}

// Cluster is a fully wired testbed. Create with New, then Start it
// inside a simulation actor; Close tears the fabric down so daemon
// actors exit.
type Cluster struct {
	Params Params
	Sim    *sim.Simulation
	Net    *netsim.Network
	MPI    *mpi.Runtime
	DAC    *dac.Context
	Server *pbs.Server
	// Sched is the Maui scheduler (nil when MakeScheduler installed a
	// custom one); Scheduler is whichever daemon is active.
	Sched     *maui.Scheduler
	Scheduler SchedulerDaemon
	Moms      map[string]*pbs.Mom

	cns []string
	acs []string
}

// CNName returns the i-th compute node's host name.
func CNName(i int) string { return "cn" + strconv.Itoa(i) }

// ACName returns the i-th accelerator's host name.
func ACName(i int) string { return "ac" + strconv.Itoa(i) }

// New builds a testbed on a fresh simulation.
func New(s *sim.Simulation, p Params) *Cluster {
	if p.Tracer != nil {
		s.SetTracer(p.Tracer)
	}
	if p.Telemetry != nil {
		s.SetTelemetry(p.Telemetry)
	}
	if p.Audit != nil {
		s.SetAudit(p.Audit)
	}
	net := netsim.New(s, netsim.LinkParams{
		Latency:       p.NetLatency,
		BandwidthBps:  p.NetBandwidthBps,
		PipelineChunk: p.PipelineChunk,
		JitterFrac:    p.LatencyJitter,
	})
	if p.Seed != 0 {
		net.Seed(p.Seed)
	}
	// Every table keyed by node is sized once: filling a 9k-node map
	// from empty rehashes it a dozen times.
	nodes := p.ComputeNodes + p.Accelerators
	net.Reserve(nodes + 2) // the moms, the server and the scheduler
	rt := mpi.NewRuntime(net, p.MPI)
	dacParams := p.DAC
	dacParams.JitterFrac = p.LatencyJitter
	dacParams.Seed = p.Seed
	ctx := dac.NewContext(net, rt, dacParams)
	server := pbs.NewServer(net, p.Server)
	server.ReserveNodes(nodes)
	var sched *maui.Scheduler
	var daemon SchedulerDaemon
	if p.MakeScheduler != nil {
		daemon = p.MakeScheduler(net, pbs.ServerEndpoint)
	} else {
		sched = maui.New(net, pbs.ServerEndpoint, p.Maui)
		daemon = sched
	}
	server.SetScheduler(daemon.Endpoint())

	c := &Cluster{
		Params:    p,
		Sim:       s,
		Net:       net,
		MPI:       rt,
		DAC:       ctx,
		Server:    server,
		Sched:     sched,
		Scheduler: daemon,
		Moms:      make(map[string]*pbs.Mom, nodes),
	}
	// One block per kind of per-host state. The moms come before the
	// nodes, whose registration then shares each mom's endpoint name.
	hosts := make([]string, 0, nodes)
	for i := 0; i < p.ComputeNodes; i++ {
		hosts = append(hosts, CNName(i))
	}
	for i := 0; i < p.Accelerators; i++ {
		hosts = append(hosts, ACName(i))
	}
	c.cns, c.acs = hosts[:p.ComputeNodes:p.ComputeNodes], hosts[p.ComputeNodes:]
	moms := pbs.NewMoms(net, hosts, p.Mom)
	startDaemons := pbs.DaemonStarter(ctx.StartDaemons) // one value every compute mom shares
	for i, name := range hosts {
		m := &moms[i]
		m.Cluster = ctx
		if i < p.ComputeNodes {
			m.StartDaemons = startDaemons
			server.AddNode(name, pbs.ComputeNode, p.CoresPerNode)
		} else {
			server.AddNode(name, pbs.AcceleratorNode, 1)
		}
		c.Moms[name] = m
	}
	ctx.AddDevices(c.acs)
	return c
}

// ComputeNodeNames returns the compute node host names.
func (c *Cluster) ComputeNodeNames() []string { return append([]string(nil), c.cns...) }

// AcceleratorNames returns the accelerator host names.
func (c *Cluster) AcceleratorNames() []string { return append([]string(nil), c.acs...) }

// Start spawns every daemon actor. Call from inside the simulation.
// The moms start in AddNode order, compute nodes first: a mom with
// heartbeats spawns their sender, and the spawn order is the order of
// same-instant heartbeats at the server.
func (c *Cluster) Start() {
	c.Server.Start()
	for _, names := range [][]string{c.cns, c.acs} {
		for _, name := range names {
			c.Moms[name].Start()
		}
	}
	c.Scheduler.Start()
}

// Client creates an IFL client (the paper's front-end host).
func (c *Cluster) Client(name string) *pbs.Client {
	return pbs.NewClient(c.Net, name, pbs.ServerEndpoint)
}

// Close tears down the fabric; all daemon actors exit.
func (c *Cluster) Close() { c.Net.Close() }

// Run is a convenience wrapper: build a simulation, start the
// cluster, run fn with an IFL client, and tear down. The kernel comes
// from the simulation pool and is recycled when the run drains.
func Run(p Params, fn func(c *Cluster, client *pbs.Client)) error {
	s := sim.Acquire()
	defer s.Release()
	cl := New(s, p)
	return s.Run(func() {
		defer cl.Close()
		cl.Start()
		fn(cl, cl.Client("front"))
	})
}
