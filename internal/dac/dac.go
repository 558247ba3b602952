// Package dac implements the Dynamic Accelerator-Cluster resource
// management and computation libraries of the paper (Sections II and
// III): AC_Init / AC_Get / AC_Free / AC_Finalize on the compute node
// side, the accelerator daemon (back-end) executing CUDA-like kernels
// on a simulated GPU, and the MPI plumbing between them — ports with
// Connect/Accept for static allocation, collective Spawn plus
// Intercomm merge for dynamic allocation.
package dac

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gpusim"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Common errors.
var (
	ErrNoContext     = errors.New("dac: job environment carries no DAC context")
	ErrUnknownHandle = errors.New("dac: unknown accelerator handle")
	ErrUnknownSet    = errors.New("dac: unknown dynamic set")
	ErrFinalized     = errors.New("dac: library already finalized")
)

// SpawnCommand is the registered name of the accelerator daemon
// binary used for dynamic allocation.
const SpawnCommand = "dacdaemon"

// Params is the DAC layer's cost model.
type Params struct {
	// DaemonLaunch is the mother superior's serial cost of forking
	// one accelerator daemon; with x static accelerators the last
	// daemon starts after x*DaemonLaunch. This serialization is why
	// the AC_Init waiting time of Figure 7(a) grows with the
	// accelerator count.
	DaemonLaunch time.Duration
	// DaemonInit is a daemon's own startup time (CUDA context plus
	// MPI_Init) once forked.
	DaemonInit time.Duration
	// GPUMemBytes is each accelerator's device memory capacity.
	GPUMemBytes int64
	// GPUPerf is the device performance model.
	GPUPerf gpusim.Perf
	// OpTimeout bounds every computation-API round trip; zero waits
	// forever. A timeout surfaces accelerator failures to the
	// application as errors instead of hangs (fault-tolerance
	// extension).
	OpTimeout time.Duration
	// JitterFrac perturbs daemon launch and init times by ±fraction
	// (0 disables), seeded by Seed — the dominant noise source behind
	// the paper's trial-to-trial variance.
	JitterFrac float64
	Seed       uint64
}

// DefaultParams mirrors the paper's testbed era (Fermi-class GPUs).
func DefaultParams() Params {
	return Params{
		DaemonLaunch: 35 * time.Millisecond,
		DaemonInit:   40 * time.Millisecond,
		GPUMemBytes:  3 << 30,
		GPUPerf:      gpusim.DefaultPerf(),
	}
}

// Context is the cluster-wide DAC runtime: it owns the accelerator
// devices, the port registry (the "file" through which daemons
// publish their MPI port, Section III-C), and the MPI runtime. The
// cluster wiring installs it as every mom's Cluster handle.
type Context struct {
	Sim    *sim.Simulation
	Net    *netsim.Network
	MPI    *mpi.Runtime
	Params Params

	mu      sync.Mutex
	ports   map[string]string
	gate    *sim.Gate
	devices map[string]*gpusim.Device
	colls   map[string]*collGroup
	rng     *sim.RNG
}

// NewContext creates the DAC runtime and registers the accelerator
// daemon as a spawnable MPI command.
func NewContext(net *netsim.Network, rt *mpi.Runtime, params Params) *Context {
	seed := params.Seed
	if seed == 0 {
		seed = 1
	}
	ctx := &Context{
		Sim:     net.Sim(),
		Net:     net,
		MPI:     rt,
		Params:  params,
		ports:   make(map[string]string),
		devices: make(map[string]*gpusim.Device),
		colls:   make(map[string]*collGroup),
		rng:     sim.NewRNG(seed),
	}
	ctx.gate = ctx.Sim.NewGate("dac-ports")
	rt.Register(SpawnCommand, ctx.dynamicDaemonMain)
	return ctx
}

// FromEnv recovers the DAC context from a job environment.
func FromEnv(env *pbs.JobEnv) (*Context, error) {
	ctx, ok := env.Cluster.(*Context)
	if !ok || ctx == nil {
		return nil, ErrNoContext
	}
	return ctx, nil
}

// AddDevice creates the simulated GPU of an accelerator host.
func (ctx *Context) AddDevice(host string) *gpusim.Device {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	d := gpusim.NewDevice(ctx.Sim, host, ctx.Params.GPUMemBytes, ctx.Params.GPUPerf)
	ctx.devices[host] = d
	return d
}

// Device returns the GPU of an accelerator host (nil if absent).
func (ctx *Context) Device(host string) *gpusim.Device {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.devices[host]
}

// --- port registry ---

func portKey(jobID, cn string) string { return jobID + "/" + cn }

// publishPort records a daemon group's MPI port under its job/compute
// node key, waking any AC_Init waiting on it.
func (ctx *Context) publishPort(jobID, cn, port string) {
	ctx.mu.Lock()
	ctx.ports[portKey(jobID, cn)] = port
	ctx.mu.Unlock()
	ctx.gate.Broadcast()
}

// waitPort blocks until the port for jobID/cn is published. This wait
// is the dominant ("waiting") share of AC_Init in Figure 7(a).
func (ctx *Context) waitPort(jobID, cn string) string {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	for {
		if p, ok := ctx.ports[portKey(jobID, cn)]; ok {
			return p
		}
		ctx.gate.Wait(&ctx.mu)
	}
}

// PublishedPorts reports how many daemon ports await their AC_Init.
func (ctx *Context) PublishedPorts() int {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return len(ctx.ports)
}

// unpublishPort removes the entry once AC_Init has connected: the
// "file" is read once.
func (ctx *Context) unpublishPort(jobID, cn string) {
	ctx.mu.Lock()
	delete(ctx.ports, portKey(jobID, cn))
	ctx.mu.Unlock()
}

// jitter perturbs a duration by ±JitterFrac (reproducible per Seed).
func (ctx *Context) jitter(d time.Duration) time.Duration {
	if ctx.Params.JitterFrac <= 0 || d <= 0 {
		return d
	}
	ctx.mu.Lock()
	u := ctx.rng.Float64()
	ctx.mu.Unlock()
	f := 1 + ctx.Params.JitterFrac*(2*u-1)
	if f < 0 {
		f = 0
	}
	return time.Duration(float64(d) * f)
}

// StartDaemons is the pbs.DaemonStarter implementation: the mother
// superior invokes it per compute node of a DAC job with static
// accelerators (paper Figure 5, "start daemons"). Daemons are forked
// serially (DaemonLaunch apart), boot in DaemonInit, synchronize, and
// the root opens and publishes an MPI port for the compute node.
// cause is the trace-span id of the mother superior's startup.
func (ctx *Context) StartDaemons(jobID, cn string, acHosts []string, cause uint64) {
	ctx.MPI.LaunchWorld(acHosts, fmt.Sprintf("dacdaemon/%s/%s", jobID, cn), func(p *mpi.Proc) {
		w := p.World()
		// daemon.boot covers serial fork, init, and the readiness
		// barrier — the dark "waiting" share of Figure 7(a).
		var sp *trace.Span
		if trc := ctx.Sim.Tracer(); trc != nil {
			sp = trc.Start("dac/daemon@"+p.Host(), "daemon.boot", "job", jobID)
		}
		sp.Link(cause)
		// Serial fork at the mom plus the daemon's own init.
		ctx.Sim.Sleep(ctx.jitter(time.Duration(w.Rank()+1)*ctx.Params.DaemonLaunch + ctx.Params.DaemonInit))
		if err := w.Barrier(); err != nil {
			sp.End()
			return
		}
		var port string
		if w.Rank() == 0 {
			port = p.OpenPort()
			ctx.publishPort(jobID, cn, port)
		}
		sp.End()
		inter, err := p.Accept(port, w)
		if w.Rank() == 0 {
			p.ClosePort(port) // a port takes one connection: AC_Init's
		}
		if err != nil {
			return
		}
		intra, err := inter.Merge(true)
		if err != nil {
			return
		}
		ctx.daemonServe(p, intra)
	})
}

// dynamicDaemonMain is the body of a dynamically spawned daemon: it
// completes the merge started by the compute node and serves.
func (ctx *Context) dynamicDaemonMain(p *mpi.Proc, args []string) {
	parent := p.Parent()
	if parent == nil {
		return
	}
	intra, err := parent.Merge(true)
	if err != nil {
		return
	}
	ctx.daemonServe(p, intra)
}
