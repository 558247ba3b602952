// Package mpi implements the subset of MPI-2 the DAC resource
// management library depends on (paper Sections II-C and III-C/D):
// intracommunicators with point-to-point and collective operations,
// ports with Connect/Accept, dynamic process management through
// Spawn, intercommunicator Merge, and Disconnect.
//
// Processes are simulation actors; every message traverses the
// netsim fabric, so communicator construction exhibits the same
// round-trip structure — and therefore the same latency scaling — as
// the Open MPI operations the paper measures.
package mpi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Common errors.
var (
	ErrInvalidRank    = errors.New("mpi: invalid rank")
	ErrUnknownPort    = errors.New("mpi: unknown port")
	ErrUnknownCommand = errors.New("mpi: unknown spawn command")
	ErrNotIntercomm   = errors.New("mpi: operation requires an intercommunicator")
	ErrDisconnected   = errors.New("mpi: communicator disconnected")
)

// Config carries the software-stack cost model of the MPI layer. The
// values are calibration knobs for the figures in the paper's
// evaluation; see cluster.Params for the testbed defaults.
type Config struct {
	// ProcStartup is the time for a launched process to become ready
	// (exec + MPI_Init). Spawned daemons boot in parallel.
	ProcStartup time.Duration
	// ConnectOverhead is the local software cost of Connect/Accept on
	// top of its network round trips.
	ConnectOverhead time.Duration
	// MergeOverhead is the local software cost of Merge.
	MergeOverhead time.Duration
	// SpawnOverhead is the local software cost of Spawn on top of
	// process startup and network round trips.
	SpawnOverhead time.Duration
	// ControlBytes is the simulated wire size of control messages
	// (group descriptors, handshakes).
	ControlBytes int
}

// SpawnFunc is the body of a spawnable "executable". It runs as a new
// simulation actor with its own Proc.
type SpawnFunc func(p *Proc, args []string)

// Runtime owns process identity, ports, and the registry of
// spawnable commands.
type Runtime struct {
	net *netsim.Network
	sim *sim.Simulation
	cfg Config

	mu       sync.Mutex
	nextProc int
	nextComm int
	nextPort int
	procs    map[int]*Proc
	ports    map[string]*portState
	commands map[string]SpawnFunc
}

// NewRuntime creates an MPI runtime over the given fabric.
func NewRuntime(net *netsim.Network, cfg Config) *Runtime {
	return &Runtime{
		net:      net,
		sim:      net.Sim(),
		cfg:      cfg,
		procs:    make(map[int]*Proc),
		ports:    make(map[string]*portState),
		commands: make(map[string]SpawnFunc),
	}
}

// Config returns the runtime's cost model.
func (rt *Runtime) Config() Config { return rt.cfg }

// Live reports how many processes and open ports the runtime holds; a
// drained system holds none of either.
func (rt *Runtime) Live() (procs, ports int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.procs), len(rt.ports)
}

// Register makes a command name spawnable via Proc.Spawn.
func (rt *Runtime) Register(command string, fn SpawnFunc) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.commands[command] = fn
}

// nameBuf assembles a name from strings and decimal integers in the
// caller's (stack) buffer, so a name costs the one allocation of its
// final string conversion and no boxed fmt operands.
type nameBuf []byte

func (b nameBuf) str(s string) nameBuf { return append(b, s...) }
func (b nameBuf) int(n int) nameBuf    { return strconv.AppendInt(b, int64(n), 10) }

// Proc is one MPI process: an actor with a fabric endpoint, a
// COMM_WORLD, and (for spawned processes) a parent intercommunicator.
//
// The runtime owns a process from newProc to exit: a launched or
// spawned process exits when its body returns, an attached one when it
// calls Detach. Exit forgets the id and releases the endpoint — with its
// gate, queue and pair states — to the fabric for the next process; the
// Proc record itself is not recycled, so a handle a caller kept stays a
// handle to this process and its operations fail once the process is
// gone.
type Proc struct {
	rt     *Runtime
	id     int
	host   string
	addr   string // the endpoint's name, for peers: ep may serve another by the time they look
	ep     *netsim.Endpoint
	world  *Comm
	parent *Comm
}

// ID returns the runtime-unique process id.
func (p *Proc) ID() int { return p.id }

// Host returns the host name the process runs on.
func (p *Proc) Host() string { return p.host }

// World returns the process's MPI_COMM_WORLD.
func (p *Proc) World() *Comm { return p.world }

// Parent returns the intercommunicator to the spawning process, or
// nil when the process was not spawned.
func (p *Proc) Parent() *Comm { return p.parent }

// newProc allocates a process bound to host without starting an actor.
func (rt *Runtime) newProc(host string) *Proc {
	p := new(Proc)
	rt.initProc(p, host)
	return p
}

// initProc makes the zero record p the runtime's next process, bound to
// host, with an endpoint of its own.
func (rt *Runtime) initProc(p *Proc, host string) {
	rt.mu.Lock()
	rt.nextProc++
	id := rt.nextProc
	rt.mu.Unlock()
	var buf [64]byte
	addr := string(nameBuf(buf[:0]).str("mpi/p").int(id).str("@").str(host))
	*p = Proc{rt: rt, id: id, host: host, addr: addr, ep: rt.net.Endpoint(addr)}
	rt.mu.Lock()
	rt.procs[id] = p
	rt.mu.Unlock()
}

// exit ends p: the runtime forgets its id and the fabric takes back its
// endpoint. A second call is a no-op.
func (rt *Runtime) exit(p *Proc) {
	rt.mu.Lock()
	gone := rt.procs[p.id] != p
	if !gone {
		delete(rt.procs, p.id)
	}
	rt.mu.Unlock()
	if !gone {
		rt.net.Release(p.ep)
	}
}

// Detach is how a process bound with Attach exits: its caller's actor
// lives on, so no body returns to mark the end. Every operation of the
// process or its communicators fails afterwards.
func (p *Proc) Detach() { p.rt.exit(p) }

// alive reports ErrInvalidRank once p has exited.
func (p *Proc) alive() error {
	if p.rt.proc(p.id) != p {
		return fmt.Errorf("%w: process %d gone", ErrInvalidRank, p.id)
	}
	return nil
}

func (rt *Runtime) proc(id int) *Proc {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.procs[id]
}

func (rt *Runtime) newCommID() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextComm++
	var buf [32]byte
	return string(nameBuf(buf[:0]).str("comm").int(rt.nextComm))
}

// Launch starts fn as a singleton MPI process (COMM_WORLD of size 1)
// on the given host. name is used for diagnostics.
func (rt *Runtime) Launch(host, name string, fn func(p *Proc)) *Proc {
	p := rt.newProc(host)
	p.world = &Comm{rt: rt, id: rt.newCommID(), rank: 0, group: []int{p.id}}
	rt.sim.Go(name, func() {
		defer rt.exit(p)
		fn(p)
	})
	return p
}

// Attach binds the calling actor as a singleton MPI process on host
// without spawning a new goroutine. This is how an application
// already running under the batch system becomes an MPI process (the
// paper's compute-node programs are started by the mom, then use the
// resource-management library).
func (rt *Runtime) Attach(host string) *Proc {
	p := rt.newProc(host)
	p.world = &Comm{rt: rt, id: rt.newCommID(), rank: 0, group: []int{p.id}}
	return p
}

// LaunchWorld starts len(hosts) processes sharing one COMM_WORLD,
// rank i on hosts[i]. It returns the procs in rank order; the actors
// begin running immediately.
func (rt *Runtime) LaunchWorld(hosts []string, name string, fn func(p *Proc)) []*Proc {
	procs := make([]*Proc, len(hosts))
	ids := make([]int, len(hosts))
	for i, h := range hosts {
		procs[i] = rt.newProc(h)
		ids[i] = procs[i].id
	}
	commID := rt.newCommID()
	for i, p := range procs {
		p.world = &Comm{rt: rt, id: commID, rank: i, group: append([]int(nil), ids...)}
	}
	for i, p := range procs {
		var buf [64]byte
		rt.sim.Go(string(nameBuf(buf[:0]).str(name).str("[").int(i).str("]")), func() {
			defer rt.exit(p)
			fn(p)
		})
	}
	return procs
}

// envelope is the wire format of every MPI message.
type envelope struct {
	comm    string
	tag     int
	src     int // sender's rank in its local group
	payload any
}

// Status describes a received message.
type Status struct {
	Source  int
	Tag     int
	Payload any
	Size    int
}
