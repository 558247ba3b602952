// Package repro is the public facade of this reproduction of
// "A Dynamic Resource Management System for Network-Attached
// Accelerator Clusters" (Prabhakaran, Iqbal, Rinke, Wolf — ICPP
// 2013).
//
// It re-exports the library surface a downstream user needs:
//
//   - the simulated DAC testbed (cluster assembly and parameters),
//   - the extended TORQUE/Maui batch system (job submission, the
//     pbs_dynget/pbs_dynfree dynamic allocation calls),
//   - the DAC resource-management and computation libraries
//     (AC_Init, AC_Get, AC_Free, AC_Finalize, memory copies, kernel
//     launches on simulated network-attached GPUs),
//   - and the experiment drivers regenerating every figure of the
//     paper's evaluation.
//
// See examples/quickstart for a complete program.
package repro

import (
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dac"
	"repro/internal/gpusim"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cluster assembly.
type (
	// Params configures the simulated testbed's shape and cost model.
	Params = cluster.Params
	// Cluster is a wired testbed (fabric, server, moms, scheduler,
	// devices).
	Cluster = cluster.Cluster
)

// DefaultParams returns the calibrated testbed configuration
// matching the paper's evaluation platform.
func DefaultParams() Params { return cluster.Default() }

// RunCluster builds a simulation and cluster, runs fn with an IFL
// client, and tears everything down.
func RunCluster(p Params, fn func(c *Cluster, client *Client)) error {
	return cluster.Run(p, fn)
}

// Simulation is the virtual-time execution environment all cluster
// components run in.
type Simulation = sim.Simulation

// NewSimulation creates an empty simulation at virtual time zero.
func NewSimulation() *Simulation { return sim.New() }

// AccountingRecord is one line of the server's TORQUE-style
// accounting log (Server.AccountingLog); with tracing enabled each
// record is also published as an "acct.<type>" trace instant.
type AccountingRecord = pbs.AccountingRecord

// Trace event kinds.
const (
	TraceSpan    = trace.KindSpan
	TraceInstant = trace.KindInstant
)

// NewTracer creates an enabled span tracer; install it via
// Params.Tracer (a nil tracer disables tracing) and dump it with
// WriteChrome (Perfetto / chrome://tracing). A tracer records one
// simulation at a time: parallel drivers open one per run through
// Observers, and run one at a time the runs that share one on Params.
func NewTracer() *trace.Tracer { return trace.New() }

// Observing a run: any combination of the span
// tracer, the telemetry registry and the flight recorder attaches to
// any experiment through Params, and what they saw travels in one
// kind-tagged JSONL capture file that cmd/dacobs reads.
type (
	// Observers names the observers to attach.
	Observers = cluster.Observers
	// Observed is what the observers of one run saw: its capture plus
	// the invariant and digest counters.
	Observed = core.Observed
)

// Observer entry points.
var (
	// ParseObservers parses a "trace,telemetry,audit" list.
	ParseObservers = cluster.ParseObservers
	// Observe collects a finished session's view of a run;
	// MergeObserved concatenates several runs into one capture.
	Observe       = core.Observe
	MergeObserved = core.Merge
	// CapturePath names a run's capture file under a prefix;
	// WriteCaptureFile writes it.
	CapturePath      = capture.Path
	WriteCaptureFile = capture.WriteFile
)

// NewIFLClient creates an Interface Library client with its own
// fabric endpoint — what a job script uses for pbs_dynget /
// pbs_dynfree calls outside the DAC library, including the malleable
// DynGetNodes extension.
func NewIFLClient(net *netsim.Network, name, serverEP string) *Client {
	return pbs.NewClient(net, name, serverEP)
}

// NewServer creates a replacement pbs_server over the same fabric
// (it takes over the well-known endpoint) — for head-node failover
// demonstrations (Checkpoint / Stop / Restore).
func NewServer(net *netsim.Network, params pbs.ServerParams) *pbs.Server {
	return pbs.NewServer(net, params)
}

// Batch system (extended TORQUE/Maui).
type (
	// JobSpec is a qsub request: nodes, cores, network-attached
	// accelerators per node (acpn), walltime, and the job script.
	JobSpec = pbs.JobSpec
	// JobEnv is the execution environment handed to each compute
	// node task.
	JobEnv = pbs.JobEnv
	// Client is the Interface Library (IFL) client: Submit, Stat,
	// Wait, Delete, DynGet, DynFree.
	Client = pbs.Client
)

// JobCompleted is the qstat state of a job that ran to completion.
const JobCompleted = pbs.JobCompleted

// DAC resource management and computation library.
type (
	// AC is the per-application handle of the resource-management
	// library.
	AC = dac.AC
	// Accel is the unique handle of one allocated accelerator.
	Accel = dac.Accel
	// DevicePtr is a device memory handle.
	DevicePtr = gpusim.Ptr
	// KernelCtx gives registered kernels access to device memory.
	KernelCtx = gpusim.KernelCtx
	// KernelCost reports the work a kernel performed (roofline
	// timing).
	KernelCost = gpusim.Cost
)

// Init is AC_Init: connect to the statically allocated accelerators.
func Init(env *JobEnv) (*AC, []*Accel, error) { return dac.Init(env) }

// RegisterKernel installs a named device kernel (the analogue of a
// compiled CUDA module available on every accelerator).
var RegisterKernel = gpusim.RegisterKernel

// EncodeFloat64s and DecodeFloat64s marshal numeric buffers for
// device copies.
var (
	EncodeFloat64s = gpusim.EncodeFloat64s
	DecodeFloat64s = gpusim.DecodeFloat64s
)

// Workload generation.
type (
	// Phase is one phase of an evolving DAC application.
	Phase = workload.Phase
	// TraceEntry is one job of a recorded workload trace.
	TraceEntry = workload.TraceEntry
)

// Workload helpers.
var (
	NewWorkloadGenerator   = workload.NewGenerator
	DefaultWorkloadClasses = workload.DefaultClasses
	PhasedApp              = workload.PhasedApp
	SaveTrace              = workload.Save
	LoadTrace              = workload.Load
	ReplayTrace            = workload.Replay
	RecordTrace            = workload.Record
	// ParseSWF imports a Standard Workload Format trace (Parallel
	// Workloads Archive); ScaleTrace compresses its time axis.
	ParseSWF   = workload.ParseSWF
	ScaleTrace = workload.ScaleTrace
)

// ArrivalConfig tunes the open-loop arrival process feeding the
// online service mode (process, rate, seed, classes, horizon, burst
// shape); it is deterministic under its seed.
type ArrivalConfig = workload.ArrivalConfig

// ArrivalBurst is the bursty interarrival distribution;
// ParseArrivalProcess maps a CLI name to a process.
const ArrivalBurst = workload.ArrivalBurst

var ParseArrivalProcess = workload.ParseArrivalProcess

// ParseResourceRequest parses a qsub -l string (the paper's
// "nodes=k:ppn=q:acpn=x") into a JobSpec.
var ParseResourceRequest = pbs.ParseResourceRequest

// Experiment drivers: one per figure of the paper's evaluation, plus
// the ablations described in DESIGN.md.
type (
	Fig7aPoint = core.Fig7aPoint
	Fig7bPoint = core.Fig7bPoint
	Fig8Point  = core.Fig8Point
	Fig9Point  = core.Fig9Point
	// ServerMode selects the server ablation for the scale ladder.
	ServerMode = core.ServerMode
	// ServePoint is one row of the online-service figure (sustained
	// open-loop ingest with steady-state SLO evaluation).
	ServePoint = core.ServePoint
)

// Server modes for Scale, Breakdown and Serve.
const (
	ServerFaithful = core.ServerFaithful
	ServerSharded  = core.ServerSharded
)

// Experiment functions and table renderers.
var (
	// SetParallelism caps how many independent experiment trials run
	// concurrently (values < 1 reset to the core count). Figure output
	// is byte-identical at every level.
	SetParallelism = core.SetParallelism

	Fig7a      = core.Fig7a
	Fig7b      = core.Fig7b
	Fig8       = core.Fig8
	Fig9       = core.Fig9
	Fig7aTable = core.Fig7aTable
	Fig7bTable = core.Fig7bTable
	Fig8Table  = core.Fig8Table
	Fig9Table  = core.Fig9Table

	// Scale replays a synthetic SWF workload on clusters of growing
	// size (up to 256 compute nodes / 2048 accelerators by default)
	// under a server ablation: ServerFaithful is the paper's serial
	// pbs_server and global Maui cycle, ServerSharded the sharded
	// fast path that extends the ladder to the ScaleSizesExtended
	// rungs (1024 and 4096 compute nodes).
	Scale              = core.Scale
	ScaleTable         = core.ScaleTable
	ScaleShardedTable  = core.ScaleShardedTable
	ScaleSizes         = core.ScaleSizes
	ScaleSizesExtended = core.ScaleSizesExtended
	ParseServerMode    = core.ParseServerMode

	// Breakdown runs the causal profiler over the scale ladder: the
	// paper's static-vs-dynamic overhead decomposition, per phase,
	// at every cluster size, under the chosen server ablation so
	// dacobs prof -diff can attribute what the sharding buys.
	Breakdown         = core.Breakdown
	BreakdownTable    = core.BreakdownTable
	DynBreakdownTable = core.DynBreakdownTable

	// AuditTable and AuditBreaches report what the flight recorders of
	// a set of observed runs counted: events, invariant checks and
	// breaches, digest rounds.
	AuditTable    = core.AuditTable
	AuditBreaches = core.AuditBreaches

	// SLO replays the scale workload under an open-loop stream of
	// paced dynamic requests, scraping live telemetry on a virtual
	// interval and evaluating the figure's SLO set per window.
	SLO                = core.SLO
	SLOTable           = core.SLOTable
	SLOComplianceTable = core.SLOComplianceTable
	SLOSizes           = core.SLOSizes

	// Serve runs the online-service experiment: a resident instance
	// per cluster size absorbing a sustained open-loop stream (Poisson
	// unless its ArrivalConfig says otherwise), reporting steady-state
	// SLO compliance and the throughput ledger.
	Serve                = core.Serve
	ServeTable           = core.ServeTable
	ServeComplianceTable = core.ServeComplianceTable
	ServeSizes           = core.ServeSizes

	AblationDynPriority          = core.AblationDynPriority
	AblationCollectiveGet        = core.AblationCollectiveGet
	AblationDynamicVsStatic      = core.AblationDynamicVsStatic
	AblationBackfill             = core.AblationBackfill
	AblationPartialAlloc         = core.AblationPartialAlloc
	AblationDoubleBuffer         = core.AblationDoubleBuffer
	AblationSchedulerPortability = core.AblationSchedulerPortability
)
