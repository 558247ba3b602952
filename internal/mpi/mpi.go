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

	nextProc int
	nextComm int
	nextPort int
	procs    map[int]*Proc
	ports    map[string]*portState
	commands map[string]SpawnFunc
	// freeEnvelopes holds the envelopes matching receives handed back,
	// for the next send (post, take).
	freeEnvelopes []*envelope
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
	return len(rt.procs), len(rt.ports)
}

// Register makes a command name spawnable via Proc.Spawn.
func (rt *Runtime) Register(command string, fn SpawnFunc) {
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
	rt   *Runtime
	id   int
	host string
	// addr is the endpoint's handle, for peers to send through: it
	// carries the name, so once ep serves another process a send
	// through addr fails instead of reaching it.
	addr   netsim.Addr
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
	rt.nextProc++
	id := rt.nextProc
	var buf [64]byte
	ep := rt.net.Endpoint(string(nameBuf(buf[:0]).str("mpi/p").int(id).str("@").str(host)))
	*p = Proc{rt: rt, id: id, host: host, addr: ep.Addr(), ep: ep}
	rt.procs[id] = p
}

// exit ends p: the runtime forgets its id and the fabric takes back its
// endpoint. A second call is a no-op.
func (rt *Runtime) exit(p *Proc) {
	if rt.procs[p.id] == p {
		delete(rt.procs, p.id)
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
	return rt.procs[id]
}

func (rt *Runtime) newCommID() string {
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

// envelope is the wire format of every MPI message. A send takes one
// from the runtime's free list and the receive that matches it copies it
// out and hands it back (post, take); one the fabric drops, or that is
// still queued when its endpoint is released, is left to the GC. The
// list is the runtime's, not a sync.Pool, for the fabric's reason: what
// a run reuses must not depend on another run.
type envelope struct {
	comm  string
	tag   int
	src   int  // sender's rank in its local group
	local bool // on an intercommunicator's side channel within one group
	high  bool // Merge: the sender's group takes the upper ranks
	// desc is the communicator a Merge, a spawn or a port handshake
	// builds, so control messages box nothing.
	desc    commDesc
	payload any
}

// post sends e from p to dst under the fabric tag tag, through dst's
// handle and in an envelope from the free list.
func (p *Proc) post(dst *Proc, tag string, e envelope, size int, pipelined bool) error {
	rt := p.rt
	var env *envelope
	if last := len(rt.freeEnvelopes) - 1; last >= 0 {
		env = rt.freeEnvelopes[last]
		rt.freeEnvelopes = rt.freeEnvelopes[:last]
	} else {
		env = new(envelope)
	}
	*env = e
	var err error
	if pipelined {
		err = p.ep.SendPipelined(&dst.addr, tag, env, size)
	} else {
		err = p.ep.SendTo(&dst.addr, tag, env, size, 0)
	}
	if err != nil { // refused before it left: nothing else holds env
		rt.freeEnvelopes = append(rt.freeEnvelopes, env)
	}
	return err
}

// pattern selects the envelopes a receive takes: one communicator's (or
// port's) on one channel, from src with tag, either of which may be a
// wildcard.
type pattern struct {
	comm     string
	local    bool
	src, tag int
}

func (pt *pattern) match(m *netsim.Message) bool {
	env, ok := m.Payload.(*envelope)
	return ok && env.comm == pt.comm && env.local == pt.local &&
		(pt.src == AnySource || env.src == pt.src) && (pt.tag == AnyTag || env.tag == pt.tag)
}

// take blocks until an envelope matching pt arrives at p, within
// timeout when it is positive, and returns a copy of it and the
// message's wire size. The envelope goes back to the free list.
func (p *Proc) take(pt pattern, timeout time.Duration) (envelope, int, error) {
	var m netsim.Message
	var err error
	if timeout > 0 {
		m, err = p.ep.RecvMatchTimeout(pt.match, timeout)
	} else {
		m, err = p.ep.RecvMatch(pt.match)
	}
	if err != nil {
		return envelope{}, 0, err
	}
	env := m.Payload.(*envelope)
	e := *env
	*env = envelope{}
	p.rt.freeEnvelopes = append(p.rt.freeEnvelopes, env)
	return e, m.Size, nil
}

// Status describes a received message.
type Status struct {
	Source  int
	Tag     int
	Payload any
	Size    int
}
