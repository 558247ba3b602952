// Package netsim models the cluster interconnect of the Dynamic
// Accelerator-Cluster architecture: named endpoints exchanging
// messages over one fabric-wide latency and bandwidth, with optional
// pipelining of bulk transfers as described in Rinke et al.
// (ICPPW'12) and referenced by the paper's Section II-C.
//
// Delivery is reliable and in order per sender/receiver pair (the
// simulation kernel breaks timestamp ties in FIFO order). Hosts can be
// taken down to inject failures.
//
// A sender names its destination, or resolves it once into an Addr and
// sends through that: the handle finds the endpoint and the pair's
// state without hashing a name. The name is the generation: a handle
// whose endpoint was released resolves the name again, and the storage
// a released endpoint leaves behind never receives what was meant for
// it.
//
// A message is a value once it lands: the fabric owns its flight from
// send until the delivery event returns, then reuses it, and receivers
// get copies, so nothing outside this package hands anything back.
package netsim

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Common errors returned by endpoint operations.
var (
	ErrClosed      = errors.New("netsim: endpoint closed")
	ErrTimeout     = errors.New("netsim: receive timed out")
	ErrUnknownPeer = errors.New("netsim: unknown destination endpoint")
)

// LinkParams describes the performance of the fabric: every directed
// pair of endpoints sends over the same parameters.
type LinkParams struct {
	// Latency is the one-way propagation plus protocol-stack delay
	// for a message of any size.
	Latency time.Duration
	// BandwidthBps is the sustainable transfer rate in bytes per
	// second; zero means infinitely fast (only Latency applies).
	BandwidthBps float64
	// PipelineChunk is the chunk size in bytes used when a transfer
	// is sent pipelined; zero disables pipelining benefits.
	PipelineChunk int
	// JitterFrac adds uniform noise of ±JitterFrac to every transfer
	// time (0 disables). Jitter is drawn from the network's seeded
	// generator, so runs stay reproducible while distinct trial seeds
	// produce the spread real testbeds show (the paper averages over
	// 10 trials for exactly this reason).
	JitterFrac float64
}

// TransferTime reports how long a payload of size bytes occupies the
// link. Pipelined transfers overlap chunk latencies and pay the
// one-way latency only once; unpipelined transfers pay it per chunk.
func (p LinkParams) TransferTime(size int, pipelined bool) time.Duration {
	if size < 0 {
		size = 0
	}
	serialize := time.Duration(0)
	if p.BandwidthBps > 0 {
		serialize = time.Duration(float64(size) / p.BandwidthBps * float64(time.Second))
	}
	if pipelined || p.PipelineChunk <= 0 || size <= p.PipelineChunk {
		return p.Latency + serialize
	}
	chunks := (size + p.PipelineChunk - 1) / p.PipelineChunk
	return time.Duration(chunks)*p.Latency + serialize
}

// Message is a delivered datagram. Payload is an arbitrary protocol
// value; Size is the simulated wire size used for timing.
//
// A received Message is a value: Recv* return a copy the receiver owns.
// The *Message a handler, a matcher or a Trace hook is given is valid
// for the call only; keep a copy, not the pointer.
type Message struct {
	From, To  string
	Tag       string
	Payload   any
	Size      int
	Sent      time.Duration // virtual send time
	Delivered time.Duration // virtual delivery time
	// Cause is the id of the trace span whose work produced this
	// message (0 = untracked). The delivery span links back to it, so
	// the profiler can stitch cross-host causal chains through the
	// fabric instead of guessing from timestamps.
	Cause uint64
}

// Release does nothing: a received message is a value.
func (m *Message) Release() {}

// flight is a message on the wire: the hop send schedules and its
// delivery event completes. It belongs to the fabric from send until
// deliverMsg returns, which hands it back to the free list (land).
type flight struct {
	msg Message
	net *Network
	dst *Endpoint
}

// Stats aggregates fabric-level counters.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
	Dropped      int64
}

// Network is the simulated fabric. Create endpoints with Endpoint, fail
// hosts with SetHostDown, and tear everything down with Close.
type Network struct {
	sim *sim.Simulation
	def LinkParams

	// aud is the flight recorder (nil when auditing is off): one
	// KindMsg event per committed delivery, plus the netsim.pairs
	// digest of per-pair FIFO floors. See audit().
	aud *audit.Recorder

	endpoints map[string]*Endpoint
	// pairs holds the state of every directed pair both of whose ends
	// are live, keyed by the two ends' indices (pairID): finding a pair
	// hashes no name.
	pairs map[uint64]*pairState
	// Landed flights, released endpoints and pair states wait here for
	// the next send, Endpoint or first send. The lists belong to the
	// fabric, not to a sync.Pool: the slot guards them, a gate is bound to
	// the fabric's kernel, and what a run reuses must not depend on what
	// another goroutine's run gave back. A flight cycles send → delivery
	// event → land.
	freeFlights   []*flight
	freeEndpoints []*Endpoint
	freePairs     []*pairState
	// Endpoints (Reserve) and pair states never held yet, cut from one
	// block per kind instead of allocated one by one.
	endpointBlock []Endpoint
	pairBlock     []pairState
	nameSeq       int
	// downHosts holds the hosts that are down, and only those: a revive
	// deletes the entry, so an empty map is a healthy fabric.
	downHosts map[string]bool
	rng       *sim.RNG
	trace     func(*Message)
	// spanNames caches "msg."+tag by tag for the delivery spans. mpi
	// tags by communicator id, so the set of tags grows with every
	// communicator: the cache is emptied when it reaches spanNameCap.
	spanNames map[string]string
	stats     Stats
	inst      *netInstruments
	// stores counts the endpoint storages ever created: the next one's
	// index.
	stores uint32
	closed bool
}

// spanNameCap bounds Network.spanNames.
const spanNameCap = 1024

// pairBlockLen is how many pair states one block holds.
const pairBlockLen = 64

// pairID is the pairs key of the directed pair from -> to.
func pairID(from, to *Endpoint) uint64 {
	return uint64(from.idx)<<32 | uint64(to.idx)
}

// pairState folds everything the per-message send path needs for one
// directed sender/receiver pair into a single map entry: the
// destination and the FIFO floor that keeps jittered (or differently
// sized) messages from overtaking earlier ones. A pair state exists
// while both its ends do. It sits on two lists, its sender's and its
// destination's, so that releasing either end finds it — and takes it
// off the surviving end's list — without an index that would cost every
// endpoint an allocation.
type pairState struct {
	lastDue time.Duration
	// names is the netsim.pairs digest state after the from and to
	// names, kept only when a recorder is installed (pairTerm).
	names    audit.Digest
	from, to *Endpoint
	out, in  pairNode // on from.out and on to.in
}

// pairNode threads a pair state on one endpoint's list.
type pairNode struct {
	next, prev *pairNode
	ps         *pairState
}

func (nd *pairNode) push(head **pairNode) {
	nd.prev, nd.next = nil, *head
	if nd.next != nil {
		nd.next.prev = nd
	}
	*head = nd
}

func (nd *pairNode) remove(head **pairNode) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		*head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	}
}

// netInstruments are the fabric's live metrics, resolved once at
// construction from the simulation's telemetry registry (nil registry
// means nil handles, whose methods are no-ops).
type netInstruments struct {
	msgs          *telemetry.Counter // delivered messages
	bytes         *telemetry.Counter // delivered payload bytes
	dropped       *telemetry.Counter // messages lost to partitions
	inflightMsgs  *telemetry.Gauge   // messages currently on the wire
	inflightBytes *telemetry.Gauge   // payload bytes currently on the wire
	linkBusy      *telemetry.Occupancy
}

// New creates a network over the given simulation with def as the
// fabric's link parameters.
func New(s *sim.Simulation, def LinkParams) *Network {
	n := &Network{
		sim:       s,
		def:       def,
		endpoints: make(map[string]*Endpoint),
		pairs:     make(map[uint64]*pairState),
		spanNames: make(map[string]string),
		downHosts: make(map[string]bool),
		rng:       sim.NewRNG(1),
	}
	if reg := s.Telemetry(); reg != nil {
		n.inst = &netInstruments{
			msgs:          reg.Counter("net.msgs"),
			bytes:         reg.Counter("net.bytes"),
			dropped:       reg.Counter("net.dropped"),
			inflightMsgs:  reg.Gauge("net.inflight_msgs"),
			inflightBytes: reg.Gauge("net.inflight_bytes"),
			linkBusy:      reg.Occupancy("net.link_busy"),
		}
	}
	n.aud = s.Audit()
	n.aud.RegisterDigest("netsim", "netsim.pairs", n.digestPairs)
	return n
}

// digestPairs hashes the fabric's per-pair FIFO state: every live
// directed sender/receiver pair and the virtual deadline of its latest
// delivery. Each pair is hashed on its own and the hashes are added, so
// the sum does not depend on the order the map is walked in and a round
// costs one pass over the live pairs. A pair's names were hashed when
// it was created, so a round hashes only each deadline.
func (n *Network) digestPairs(d *audit.Digest) {
	var sum uint64
	for _, ps := range n.pairs {
		sum += pairTerm(ps.names, ps.lastDue)
	}
	d.WriteInt(int64(len(n.pairs)))
	d.WriteUint(sum)
}

// pairTerm is one pair's term of the netsim.pairs digest: the hash of
// its from and to names (names, kept by the pair) continued over its
// latest deadline.
func pairTerm(names audit.Digest, lastDue time.Duration) uint64 {
	names.WriteInt(int64(lastDue))
	return names.Sum()
}

// Seed reseeds the jitter generator (distinct seeds per trial emulate
// run-to-run testbed noise when JitterFrac is set).
func (n *Network) Seed(seed uint64) {
	n.rng = sim.NewRNG(seed)
}

// jitter perturbs a transfer time by ±JitterFrac.
func (n *Network) jitter(d time.Duration) time.Duration {
	if n.def.JitterFrac <= 0 || d <= 0 {
		return d
	}
	f := 1 + n.def.JitterFrac*(2*n.rng.Float64()-1)
	if f < 0 {
		f = 0
	}
	return time.Duration(float64(d) * f)
}

// Sim returns the simulation the network runs on.
func (n *Network) Sim() *sim.Simulation { return n.sim }

// NameSeq returns the next value of a per-fabric monotonic counter,
// used to mint unique endpoint names. Keeping the counter on the
// fabric (not a process global) matters for the audit layer: minted
// names appear in recorded message addresses, so a global counter
// would leak cross-run nondeterminism into otherwise byte-identical
// recordings.
func (n *Network) NameSeq() int {
	n.nameSeq++
	return n.nameSeq
}

// Reserve sizes the endpoint table for extra more endpoints, and cuts
// the next extra new endpoints from one block, so that registering a
// cluster's daemons neither rehashes the table nor allocates each one.
func (n *Network) Reserve(extra int) {
	endpoints := make(map[string]*Endpoint, len(n.endpoints)+extra)
	maps.Copy(endpoints, n.endpoints)
	n.endpoints = endpoints
	n.endpointBlock = make([]Endpoint, extra)
}

// Endpoint creates (or returns the existing) endpoint with the given
// name. A new endpoint takes over the storage of a released one when
// there is one: its gate, waiter list, queue and index.
func (n *Network) Endpoint(name string) *Endpoint {
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	var e *Endpoint
	if last := len(n.freeEndpoints) - 1; last >= 0 {
		e = n.freeEndpoints[last]
		n.freeEndpoints[last] = nil
		n.freeEndpoints = n.freeEndpoints[:last]
		e.gate.Rename(name)
		e.name = name
		e.closed = false
	} else {
		if len(n.endpointBlock) > 0 {
			e, n.endpointBlock = &n.endpointBlock[0], n.endpointBlock[1:]
		} else {
			e = new(Endpoint)
		}
		n.sim.InitGate(&e.gate, "recv:", name)
		e.net, e.name, e.idx = n, name, n.stores
		n.stores++
	}
	e.live = true
	n.endpoints[name] = e
	return e
}

// Release is the other half of Endpoint: it closes e, forgets its name
// and every pair state that names it — on the surviving peers too — and
// keeps the storage for the next Endpoint. Names are never reused by
// the layers above (process ids and NameSeq only count up), so the name
// is the generation: a message still in flight to a released endpoint is
// discarded on arrival even when the struct already serves a new owner,
// and a send to the released name, by name or through an Addr, fails
// with ErrUnknownPeer. Releasing twice is a no-op. The caller must not
// touch e afterwards.
func (n *Network) Release(e *Endpoint) {
	if !e.live {
		return
	}
	e.live = false
	delete(n.endpoints, e.name)
	for nd := e.out; nd != nil; nd = nd.next {
		ps := nd.ps
		ps.in.remove(&ps.to.in)
		n.dropPair(ps)
	}
	for nd := e.in; nd != nil; nd = nd.next {
		ps := nd.ps
		ps.out.remove(&ps.from.out)
		n.dropPair(ps)
	}
	e.out, e.in = nil, nil
	// Parked receivers wake with ErrClosed and queued messages are dropped
	// before the storage can be handed out again.
	e.Close()
	n.freeEndpoints = append(n.freeEndpoints, e)
}

// dropPair forgets a pair state that is off the list of its
// surviving end and keeps the storage. The lists it is still on are being
// walked by the caller, so its links stay until it is reused.
func (n *Network) dropPair(ps *pairState) {
	delete(n.pairs, pairID(ps.from, ps.to))
	ps.from, ps.to = nil, nil
	n.freePairs = append(n.freePairs, ps)
}

// newPair creates the state of the directed pair e -> dst, which
// n.pairs does not hold yet.
func (n *Network) newPair(e, dst *Endpoint) *pairState {
	var ps *pairState
	if last := len(n.freePairs) - 1; last >= 0 {
		ps = n.freePairs[last]
		n.freePairs[last] = nil
		n.freePairs = n.freePairs[:last]
	} else {
		if len(n.pairBlock) == 0 {
			n.pairBlock = make([]pairState, pairBlockLen)
		}
		ps, n.pairBlock = &n.pairBlock[0], n.pairBlock[1:]
		ps.out.ps, ps.in.ps = ps, ps
	}
	ps.lastDue = 0
	if n.aud != nil {
		ps.names = audit.Digest{}
		ps.names.WriteString(e.name)
		ps.names.WriteString(dst.name)
	}
	ps.from, ps.to = e, dst
	ps.out.push(&e.out)
	ps.in.push(&dst.in)
	n.pairs[pairID(e, dst)] = ps
	return ps
}

// HostOf extracts the host component from an endpoint name. By
// convention, per-host endpoints are named "...@host" (pbs moms, MPI
// processes); host-less endpoints (server, scheduler, clients) map to
// themselves.
func HostOf(endpoint string) string {
	if i := strings.LastIndex(endpoint, "@"); i >= 0 {
		return endpoint[i+1:]
	}
	return endpoint
}

// SetHostDown fails (or revives) an entire host: every endpoint whose
// name ends in "@host" is disconnected, emulating a node crash or
// network partition of that node. A host-less endpoint is its own host.
// Messages to or from a disconnected endpoint are dropped silently, as
// on a real unreliable fabric; higher layers time out.
func (n *Network) SetHostDown(host string, down bool) {
	if down {
		n.downHosts[host] = true
	} else {
		delete(n.downHosts, host)
	}
}

// unreachable reports whether an endpoint is currently cut off. Failure
// injection is rare, so on a healthy fabric the per-message check is a
// length read instead of a map lookup plus a HostOf split.
func (n *Network) unreachable(endpoint string) bool {
	return len(n.downHosts) != 0 && n.downHosts[HostOf(endpoint)]
}

// Stats returns a snapshot of fabric counters.
func (n *Network) Stats() Stats {
	return n.stats
}

// Census counts the fabric's live state: what a drained system should
// hold is its resident daemons' endpoints and the pairs between them,
// whatever it has served.
type Census struct {
	Endpoints int // names that resolve
	Pairs     int // directed pair states
	// Dangling counts pair states with an end that is not the live
	// endpoint of its name, or that only one of its ends indexes.
	// Always zero unless Release has a bug.
	Dangling int
}

// Census walks the endpoint table and every pair state.
func (n *Network) Census() Census {
	c := Census{Endpoints: len(n.endpoints), Pairs: len(n.pairs)}
	for key, ps := range n.pairs {
		if ps.from == nil || ps.to == nil || key != pairID(ps.from, ps.to) ||
			n.endpoints[ps.from.name] != ps.from || n.endpoints[ps.to.name] != ps.to {
			c.Dangling++
		}
	}
	// Every pair is on its sender's list and on its destination's.
	listed := 0
	for _, e := range n.endpoints {
		for nd := e.out; nd != nil; nd = nd.next {
			if n.pairs[pairID(e, nd.ps.to)] != nd.ps {
				c.Dangling++
			}
			listed++
		}
		for nd := e.in; nd != nil; nd = nd.next {
			if nd.ps.to != e {
				c.Dangling++
			}
			listed++
		}
	}
	if listed != 2*c.Pairs {
		c.Dangling++
	}
	return c
}

// Trace installs an observer invoked for every delivered message
// (nil disables). The observer runs on the delivery path and must be
// fast and non-blocking, and its *Message is valid for the call only;
// use it for protocol debugging and message audits.
func (n *Network) Trace(fn func(*Message)) {
	n.trace = fn
}

// Close closes every endpoint; parked receivers return ErrClosed so
// daemon actors can exit after a simulation finishes.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, e := range n.endpoints {
		eps = append(eps, e)
	}
	// Every receiver woken here joins the kernel's ready list: close in
	// name order, so the daemons exit in one order every run.
	slices.SortFunc(eps, func(a, b *Endpoint) int { return strings.Compare(a.name, b.name) })
	for _, e := range eps {
		e.Close()
	}
}

// Endpoint is a named mailbox attached to the fabric. Like the fabric,
// it is guarded by the simulation's slot; Recv* must be called from
// simulation actors.
type Endpoint struct {
	net  *Network
	gate sim.Gate

	// The lists of pair states this endpoint sends on and of those that
	// name it as destination.
	out, in *pairNode

	// name is the endpoint's current name; only reuse of a released
	// endpoint's storage writes it.
	name string
	// queue[head:] holds the undelivered messages. Dequeuing from the
	// front (the overwhelmingly common case: Recv with no matcher, or
	// a matcher that accepts the oldest message) advances head instead
	// of shifting the slice; the storage is reclaimed when the queue
	// drains or the dead prefix outgrows the live tail.
	queue      []Message
	head       int
	handler    func(any, *Message) // takes each message instead of the queue (SetHandler)
	handlerArg any
	// idx is the storage's dense index, given when it is first created
	// and kept through reuse: the pairs key.
	idx    uint32
	closed bool
	// live is false from Release until the storage is handed out again.
	live bool
}

// Name returns the endpoint's fabric-unique name.
func (e *Endpoint) Name() string { return e.name }

// Addr is a destination resolved once: its name and the endpoint the
// name resolved to. A send through an Addr whose endpoint still holds
// the name hashes no string. The name is the generation: once the
// endpoint is released the handle resolves the name again, and fails
// with ErrUnknownPeer when nothing holds it, so it never reaches the
// storage's next owner.
type Addr struct {
	name string
	ep   *Endpoint
	// ps is the pair state of the handle's last send, used while it names
	// the sender and ep: a dropped or reused one names other ends.
	ps *pairState
}

// Resolve returns the handle of the endpoint named name. Nothing needs
// to hold the name yet: a send resolves it when something does.
func (n *Network) Resolve(name string) Addr {
	return Addr{name: name, ep: n.endpoints[name]}
}

// ResolveBytes is Resolve for a name built in a buffer: when the name
// resolves, the handle shares the endpoint's name and nothing is
// allocated.
func (n *Network) ResolveBytes(name []byte) Addr {
	if e, ok := n.endpoints[string(name)]; ok {
		return Addr{name: e.name, ep: e}
	}
	return Addr{name: string(name)}
}

// Name returns the name the handle resolves.
func (a *Addr) Name() string { return a.name }

// Addr returns the handle of e under its current name, hashing nothing.
func (e *Endpoint) Addr() Addr { return Addr{name: e.name, ep: e} }

// Send transmits payload to the named endpoint. size is the simulated
// wire size in bytes (headers are negligible; pass 0 for pure control
// messages). Send never blocks; delivery happens after the fabric's
// transfer time. Sending to an unknown endpoint is an error; sending
// to or from an endpoint on a down host silently drops the message.
func (e *Endpoint) Send(to, tag string, payload any, size int) error {
	return e.send(&Addr{name: to}, tag, payload, size, false, 0)
}

// SendPipelined is SendTo using the pipelined bulk-transfer protocol
// (large payloads pay the link latency only once), with no cause.
func (e *Endpoint) SendPipelined(to *Addr, tag string, payload any, size int) error {
	return e.send(to, tag, payload, size, true, 0)
}

// SendTo is Send through a resolved handle, which it keeps current,
// annotated with the trace-span id that caused the message (0 records
// nothing). Protocol layers pass the span open at the send site so the
// delivery span carries a causal link to it.
func (e *Endpoint) SendTo(to *Addr, tag string, payload any, size int, cause uint64) error {
	return e.send(to, tag, payload, size, false, cause)
}

func (e *Endpoint) send(to *Addr, tag string, payload any, size int, pipelined bool, cause uint64) error {
	n := e.net
	if n.closed {
		return ErrClosed
	}
	if !e.live {
		return ErrClosed
	}
	dst := to.ep
	if dst == nil || !dst.live || dst.name != to.name {
		// Never resolved, or released since: the name decides.
		var ok bool
		if dst, ok = n.endpoints[to.name]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownPeer, to.name)
		}
		to.ep = dst
	}
	if n.unreachable(e.name) || n.unreachable(to.name) {
		n.stats.Dropped++
		return nil // dropped in flight; sender cannot tell
	}
	ps := to.ps
	if ps == nil || ps.from != e || ps.to != dst {
		if ps = n.pairs[pairID(e, dst)]; ps == nil {
			ps = n.newPair(e, dst)
		}
		to.ps = ps
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)
	now := n.sim.Now()
	delay := n.jitter(n.def.TransferTime(size, pipelined))
	// A later message must not overtake an earlier one on the same
	// pair (MPI's non-overtaking guarantee) — jitter or a smaller
	// payload could otherwise reorder deliveries.
	due := now + delay
	if due < ps.lastDue {
		due = ps.lastDue
		delay = due - now
	}
	ps.lastDue = due

	f := n.takeFlight()
	// Field by field: a composite literal here is built aside and copied.
	f.msg.From = e.name
	f.msg.To = to.name
	f.msg.Tag = tag
	f.msg.Payload = payload
	f.msg.Size = size
	f.msg.Sent = now
	f.msg.Cause = cause
	f.net = n
	f.dst = dst
	if ni := n.inst; ni != nil {
		ni.inflightMsgs.Add(1)
		ni.inflightBytes.Add(float64(size))
		ni.linkBusy.OnFor(delay)
	}
	n.sim.AfterArg(delay, deliverMsg, f)
	return nil
}

// takeFlight takes a flight off the free list, or allocates one.
func (n *Network) takeFlight() *flight {
	last := len(n.freeFlights) - 1
	if last < 0 {
		return new(flight)
	}
	f := n.freeFlights[last]
	n.freeFlights[last] = nil
	n.freeFlights = n.freeFlights[:last]
	return f
}

// land returns a flight whose delivery event is done to the free list.
func (n *Network) land(f *flight) {
	*f = flight{}
	n.freeFlights = append(n.freeFlights, f)
}

// deliverMsg completes a message's flight. It is the single long-lived
// delivery callback shared by every send (via sim.AfterArg), so the
// per-hop schedule carries no closure.
func deliverMsg(arg any) {
	f := arg.(*flight)
	n, msg := f.net, &f.msg
	// Re-check reachability at delivery time so a partition that
	// happened mid-flight also drops the message.
	trc := n.sim.Tracer()
	var spanName string
	drop := n.unreachable(msg.From) || n.unreachable(msg.To)
	if drop {
		n.stats.Dropped++
		n.stats.MessagesSent--
		n.stats.BytesSent -= int64(msg.Size)
	} else if trc != nil {
		// The delivery span's name, built once per tag while it is cached.
		if spanName = n.spanNames[msg.Tag]; spanName == "" {
			if len(n.spanNames) == spanNameCap {
				clear(n.spanNames)
			}
			spanName = "msg." + msg.Tag
			n.spanNames[msg.Tag] = spanName
		}
	}
	if ni := n.inst; ni != nil {
		ni.inflightMsgs.Add(-1)
		ni.inflightBytes.Add(-float64(msg.Size))
		if drop {
			ni.dropped.Inc()
		} else {
			ni.msgs.Inc()
			ni.bytes.Add(int64(msg.Size))
		}
	}
	if drop {
		n.land(f)
		return
	}
	msg.Delivered = n.sim.Now()
	// One KindMsg event per committed delivery: destination, tag, and
	// wire size (all strings pre-existing — the record is alloc-free).
	n.aud.Record(audit.KindMsg, "netsim", msg.To, msg.Tag, int64(msg.Size), int64(msg.Delivered-msg.Sent))
	if n.trace != nil {
		n.trace(msg)
	}
	// One async span per delivered message (in-flight intervals
	// overlap freely); the from/to annotations carry the per-link
	// breakdown the constant-name traffic counters above do not.
	if trc != nil {
		trc.AsyncSpanLinkAt("netsim", spanName, msg.Cause, msg.Sent, msg.Delivered-msg.Sent,
			"from", msg.From, "to", msg.To, "size", strconv.Itoa(msg.Size))
	}
	f.dst.deliver(msg)
	n.land(f)
}

// deliver hands m to the handler or queues a copy, unless the endpoint
// is closed or no longer the one m was sent to: the name is the
// generation, so a message that was in flight when its destination was
// released never reaches whoever holds the storage now.
func (e *Endpoint) deliver(m *Message) {
	if e.closed || m.To != e.name {
		return
	}
	if h := e.handler; h != nil {
		h(e.handlerArg, m)
		return
	}
	// Grow, then copy *m once: append would copy it aside first.
	e.queue = slices.Grow(e.queue, 1)[:len(e.queue)+1]
	e.queue[len(e.queue)-1] = *m
	e.gate.Broadcast()
}

// SetHandler installs h as e's receive handler, or removes it (nil). h
// takes arg and every message in its delivery event, on the simulation's
// controller; it must not block, and its *Message is valid for the call
// only. Like sim.AfterArg, a long-lived h and a pointer arg install a
// daemon's handler without building a closure. Nothing queues for Recv*
// while h is installed, and installing it first hands it the messages
// already queued, in order.
func (e *Endpoint) SetHandler(h func(arg any, m *Message), arg any) {
	e.handler, e.handlerArg = h, arg
	backlog := e.queue[e.head:]
	e.queue, e.head = nil, 0
	for i := range backlog {
		e.deliver(&backlog[i])
	}
}

// Recv blocks until a message arrives and returns it.
func (e *Endpoint) Recv() (Message, error) {
	return e.recv(nil, 0)
}

// RecvTimeout is Recv with a virtual-time deadline.
func (e *Endpoint) RecvTimeout(d time.Duration) (Message, error) {
	return e.recv(nil, d)
}

// RecvMatch blocks until a message satisfying match arrives, leaving
// other queued messages untouched. match's *Message is valid for the
// call only.
func (e *Endpoint) RecvMatch(match func(*Message) bool) (Message, error) {
	return e.recv(match, 0)
}

// RecvMatchTimeout is RecvMatch with a virtual-time deadline.
func (e *Endpoint) RecvMatchTimeout(match func(*Message) bool, d time.Duration) (Message, error) {
	return e.recv(match, d)
}

func (e *Endpoint) recv(match func(*Message) bool, timeout time.Duration) (m Message, err error) {
	deadline := time.Duration(-1)
	if timeout > 0 {
		deadline = e.net.sim.Now() + timeout
	}
	name := e.name
	for {
		// A receiver woken by Release may find the storage already
		// serving a new name.
		if e.closed || e.name != name {
			return Message{}, ErrClosed
		}
		for i := e.head; i < len(e.queue); i++ {
			if match == nil || match(&e.queue[i]) {
				m = e.queue[i]
				e.remove(i)
				return m, nil
			}
		}
		if deadline < 0 {
			e.gate.Wait(nil)
			continue
		}
		remain := deadline - e.net.sim.Now()
		if remain <= 0 || !e.gate.WaitTimeout(nil, remain) {
			return Message{}, ErrTimeout
		}
	}
}

// remove deletes the message at index i, keeping FIFO order for
// the rest.
func (e *Endpoint) remove(i int) {
	if i == e.head {
		e.queue[i] = Message{}
		e.head++
	} else {
		copy(e.queue[i:], e.queue[i+1:])
		e.queue[len(e.queue)-1] = Message{}
		e.queue = e.queue[:len(e.queue)-1]
	}
	if e.head == len(e.queue) {
		e.queue = e.queue[:0]
		e.head = 0
	} else if e.head > 64 && e.head > len(e.queue)/2 {
		n := copy(e.queue, e.queue[e.head:])
		clear(e.queue[n:])
		e.queue = e.queue[:n]
		e.head = 0
	}
}

// Pending reports how many messages are queued.
func (e *Endpoint) Pending() int {
	return len(e.queue) - e.head
}

// Close unblocks all receivers with ErrClosed, removes the handler and
// discards queued messages. Closing twice is a no-op. It is how the
// fabric shuts down; an owner done with its endpoint calls
// Network.Release, which also forgets the name.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.handler, e.handlerArg = nil, nil
	clear(e.queue[e.head:])
	e.queue = e.queue[:0] // the backing array serves the storage's next owner
	e.head = 0
	e.gate.Broadcast()
}
