// Package netsim models the cluster interconnect of the Dynamic
// Accelerator-Cluster architecture: named endpoints exchanging
// messages with configurable per-link latency and bandwidth, with
// optional pipelining of bulk transfers as described in Rinke et al.
// (ICPPW'12) and referenced by the paper's Section II-C.
//
// Delivery is reliable and in order per sender/receiver pair (the
// simulation kernel breaks timestamp ties in FIFO order). Endpoints
// can be disconnected to inject failures.
package netsim

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Common errors returned by endpoint operations.
var (
	ErrClosed       = errors.New("netsim: endpoint closed")
	ErrTimeout      = errors.New("netsim: receive timed out")
	ErrUnknownPeer  = errors.New("netsim: unknown destination endpoint")
	ErrDisconnected = errors.New("netsim: endpoint disconnected")
)

// LinkParams describes the performance of a link (or of the whole
// fabric when used as the network default).
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
// Messages live in a fabric-wide arena: every send takes one from the
// pool and the receiver gives it back with Release once the payload is
// extracted. A receiver that forgets to release merely falls back to
// garbage collection.
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
	// net and dst route the in-flight message through the package-level
	// delivery callback so scheduling the hop allocates no closure. net
	// doubles as the arena ownership marker: nil means the message has
	// been released (or never came from the arena).
	net *Network
	dst *Endpoint
}

// msgPool is the arena backing in-flight messages. A message cycles
// send → queue → recv → Release and is reused by a later send.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// Release returns the message to the fabric's arena. Call it after the
// payload (and any fields of interest) have been extracted; the message
// must not be touched afterwards. Releasing twice — or releasing a
// message that did not come from the arena — is a no-op.
func (m *Message) Release() {
	if m == nil || m.net == nil {
		return
	}
	*m = Message{}
	msgPool.Put(m)
}

// Stats aggregates fabric-level counters.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
	Dropped      int64
}

// Network is the simulated fabric. Create endpoints with Endpoint,
// override per-link parameters with SetLink, and tear everything down
// with Close.
type Network struct {
	sim *sim.Simulation
	def LinkParams

	// aud is the flight recorder (nil when auditing is off): one
	// KindMsg event per committed delivery, plus the netsim.pairs
	// digest of per-pair FIFO floors. See audit().
	aud *audit.Recorder

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	// pairs holds the state of every directed pair both of whose ends
	// are live, keyed by the sending endpoint and the destination's
	// name: one lookup on the send path finds the FIFO floor, the link
	// and the destination.
	pairs map[pairKey]*pairState
	// links holds the SetLink overrides by (from, to) name. It is
	// configuration, not state: an override outlives the endpoints it
	// names, while the pair states above live and die with them.
	links map[[2]string]LinkParams
	// Released endpoints and pair states wait here for the next Endpoint
	// or first send. The lists belong to the fabric, not to a sync.Pool:
	// a gate is bound to the fabric's kernel, and what a run reuses must
	// not depend on what another goroutine's run gave back.
	freeEndpoints []*Endpoint
	freePairs     []*pairState
	nameSeq       int
	down          map[string]bool
	downHosts     map[string]bool
	rng           *sim.RNG
	trace         func(*Message)
	spanNames     map[string]string // "msg."+tag by tag: delivery span names
	stats         Stats
	inst          *netInstruments
	// The two flags sit together after the pointer-wide fields so the
	// struct carries no reducible padding (pinned by the layout test
	// in internal/lint).
	anyDown bool // fast-path guard: no endpoint or host is down
	closed  bool
}

type pairKey struct {
	from *Endpoint
	to   string
}

// pairState folds everything the per-message send path needs for one
// directed sender/receiver pair into a single map entry: the
// destination, the link parameters in effect and the FIFO floor that
// keeps jittered (or differently sized) messages from overtaking earlier
// ones. A pair state exists while both its ends do. It sits on two
// lists, its sender's and its destination's, so that releasing either
// end finds it — and takes it off the surviving end's list — without an
// index that would cost every endpoint an allocation.
type pairState struct {
	p       LinkParams
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
// default link parameters.
func New(s *sim.Simulation, def LinkParams) *Network {
	n := &Network{
		sim:       s,
		def:       def,
		endpoints: make(map[string]*Endpoint),
		pairs:     make(map[pairKey]*pairState),
		links:     make(map[[2]string]LinkParams),
		spanNames: make(map[string]string),
		down:      make(map[string]bool),
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
	n.mu.Lock()
	defer n.mu.Unlock()
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
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rng = sim.NewRNG(seed)
}

// jitterLocked perturbs a transfer time by ±JitterFrac. Callers hold
// n.mu.
func (n *Network) jitterLocked(d time.Duration, p LinkParams) time.Duration {
	if p.JitterFrac <= 0 || d <= 0 {
		return d
	}
	f := 1 + p.JitterFrac*(2*n.rng.Float64()-1)
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
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nameSeq++
	return n.nameSeq
}

// Reserve sizes the endpoint table for extra more endpoints, so that
// registering a cluster's daemons does not rehash it on the way.
func (n *Network) Reserve(extra int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	endpoints := make(map[string]*Endpoint, len(n.endpoints)+extra)
	maps.Copy(endpoints, n.endpoints)
	n.endpoints = endpoints
}

// Endpoint creates (or returns the existing) endpoint with the given
// name. A new endpoint takes over the storage of a released one when
// there is one: its gate, waiter list and queue.
func (n *Network) Endpoint(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	var e *Endpoint
	if last := len(n.freeEndpoints) - 1; last >= 0 {
		e = n.freeEndpoints[last]
		n.freeEndpoints[last] = nil
		n.freeEndpoints = n.freeEndpoints[:last]
		e.gate.Rename(name)
		e.mu.Lock()
		e.name = name
		e.closed = false
		e.mu.Unlock()
	} else {
		e = &Endpoint{net: n, name: name, gate: n.sim.NewGateKind("recv:", name)}
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
// and a send to the released name fails with ErrUnknownPeer. Releasing
// twice is a no-op. The caller must not touch e afterwards.
func (n *Network) Release(e *Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !e.live {
		return
	}
	e.live = false
	delete(n.endpoints, e.name)
	for nd := e.out; nd != nil; nd = nd.next {
		ps := nd.ps
		ps.in.remove(&ps.to.in)
		n.dropPairLocked(ps)
	}
	for nd := e.in; nd != nil; nd = nd.next {
		ps := nd.ps
		ps.out.remove(&ps.from.out)
		n.dropPairLocked(ps)
	}
	e.out, e.in = nil, nil
	// Parked receivers wake with ErrClosed and queued messages go back to
	// the arena before the storage can be handed out again.
	e.Close()
	n.freeEndpoints = append(n.freeEndpoints, e)
}

// dropPairLocked forgets a pair state that is off the list of its
// surviving end and keeps the storage. The lists it is still on are being
// walked by the caller, so its links stay until it is reused.
func (n *Network) dropPairLocked(ps *pairState) {
	delete(n.pairs, pairKey{ps.from, ps.to.name})
	ps.from, ps.to = nil, nil
	n.freePairs = append(n.freePairs, ps)
}

// newPairLocked creates the state of the directed pair e -> dst, which
// n.pairs does not hold yet. Callers hold n.mu.
func (n *Network) newPairLocked(e, dst *Endpoint) *pairState {
	var ps *pairState
	if last := len(n.freePairs) - 1; last >= 0 {
		ps = n.freePairs[last]
		n.freePairs[last] = nil
		n.freePairs = n.freePairs[:last]
	} else {
		ps = new(pairState)
		ps.out.ps, ps.in.ps = ps, ps
	}
	ps.p = n.linkLocked(e.name, dst.name)
	ps.lastDue = 0
	if n.aud != nil {
		ps.names = audit.Digest{}
		ps.names.WriteString(e.name)
		ps.names.WriteString(dst.name)
	}
	ps.from, ps.to = e, dst
	ps.out.push(&e.out)
	ps.in.push(&dst.in)
	n.pairs[pairKey{e, dst.name}] = ps
	return ps
}

// linkLocked reports the parameters of the directed link from -> to:
// the SetLink override if there is one, the fabric default otherwise.
func (n *Network) linkLocked(from, to string) LinkParams {
	if p, ok := n.links[[2]string{from, to}]; ok {
		return p
	}
	return n.def
}

// SetLink overrides parameters for the directed link from -> to. The
// override is kept by name: it applies to endpoints created later and
// survives the release of either end.
func (n *Network) SetLink(from, to string, p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = p
	if ps, ok := n.pairs[pairKey{n.endpoints[from], to}]; ok {
		ps.p = p
	}
}

// LinkParams reports the parameters in effect for the directed link
// from -> to.
func (n *Network) LinkParams(from, to string) LinkParams {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(from, to)
}

// SetDown marks an endpoint as disconnected (true) or reachable
// (false). Messages to or from a disconnected endpoint are dropped
// silently, as on a real unreliable fabric; higher layers time out.
func (n *Network) SetDown(name string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[name] = down
	n.refreshAnyDownLocked()
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
// network partition of that node.
func (n *Network) SetHostDown(host string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downHosts[host] = down
	n.refreshAnyDownLocked()
}

// refreshAnyDownLocked recomputes the anyDown fast-path flag. Failure
// injection is rare, so the per-message reachability check should cost
// one boolean read on a healthy fabric instead of two map lookups plus
// a HostOf split. Callers hold n.mu.
func (n *Network) refreshAnyDownLocked() {
	n.anyDown = false
	for _, d := range n.down {
		if d {
			n.anyDown = true
			return
		}
	}
	for _, d := range n.downHosts {
		if d {
			n.anyDown = true
			return
		}
	}
}

// unreachableLocked reports whether an endpoint is currently cut off.
// Callers hold n.mu.
func (n *Network) unreachableLocked(endpoint string) bool {
	if !n.anyDown {
		return false
	}
	return n.down[endpoint] || n.downHosts[HostOf(endpoint)]
}

// Stats returns a snapshot of fabric counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
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
	n.mu.Lock()
	defer n.mu.Unlock()
	c := Census{Endpoints: len(n.endpoints), Pairs: len(n.pairs)}
	for key, ps := range n.pairs {
		if ps.from != key.from || n.endpoints[ps.from.name] != ps.from || n.endpoints[key.to] != ps.to {
			c.Dangling++
		}
	}
	// Every pair is on its sender's list and on its destination's.
	listed := 0
	for _, e := range n.endpoints {
		for nd := e.out; nd != nil; nd = nd.next {
			if n.pairs[pairKey{e, nd.ps.to.name}] != nd.ps {
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
// fast and non-blocking; use it for protocol debugging and message
// audits.
func (n *Network) Trace(fn func(*Message)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.trace = fn
}

// Close closes every endpoint; parked receivers return ErrClosed so
// daemon actors can exit after a simulation finishes.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
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
	n.mu.Unlock()
	for _, e := range eps {
		e.Close()
	}
}

// Endpoint is a named mailbox attached to the fabric. All methods are
// safe for concurrent use; Recv* must be called from simulation
// actors.
type Endpoint struct {
	net  *Network
	gate *sim.Gate

	// Guarded by net.mu: the lists of pair states this endpoint sends
	// on and of those that name it as destination.
	out, in *pairNode

	mu sync.Mutex
	// name is the endpoint's current name; only reuse of a released
	// endpoint's storage writes it.
	name string
	// queue[head:] holds the undelivered messages. Dequeuing from the
	// front (the overwhelmingly common case: Recv with no matcher, or
	// a matcher that accepts the oldest message) advances head instead
	// of shifting the slice; the storage is reclaimed when the queue
	// drains or the dead prefix outgrows the live tail.
	queue   []*Message
	head    int
	handler func(*Message) bool // offered each message first (SetHandler)
	closed  bool
	// live (guarded by net.mu) is false from Release until the storage
	// is handed out again.
	live bool
}

// Name returns the endpoint's fabric-unique name.
func (e *Endpoint) Name() string { return e.name }

// Send transmits payload to the named endpoint. size is the simulated
// wire size in bytes (headers are negligible; pass 0 for pure control
// messages). Send never blocks; delivery happens after the link's
// transfer time. Sending to an unknown endpoint is an error; sending
// to or from a disconnected endpoint silently drops the message.
func (e *Endpoint) Send(to, tag string, payload any, size int) error {
	return e.send(to, tag, payload, size, false, 0)
}

// SendPipelined is Send using the pipelined bulk-transfer protocol
// (large payloads pay the link latency only once).
func (e *Endpoint) SendPipelined(to, tag string, payload any, size int) error {
	return e.send(to, tag, payload, size, true, 0)
}

// SendCause is Send annotated with the trace-span id that caused the
// message (0 records nothing). Protocol layers pass the span open at
// the send site so the delivery span carries a causal link to it.
func (e *Endpoint) SendCause(to, tag string, payload any, size int, cause uint64) error {
	return e.send(to, tag, payload, size, false, cause)
}

func (e *Endpoint) send(to, tag string, payload any, size int, pipelined bool, cause uint64) error {
	n := e.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if !e.live {
		n.mu.Unlock()
		return ErrClosed
	}
	// One lookup on a pair that has carried traffic: its state knows
	// the destination.
	var dst *Endpoint
	ps, ok := n.pairs[pairKey{e, to}]
	if ok {
		dst = ps.to
	} else if dst, ok = n.endpoints[to]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if n.unreachableLocked(e.name) || n.unreachableLocked(to) {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil // dropped in flight; sender cannot tell
	}
	if ps == nil {
		ps = n.newPairLocked(e, dst)
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)
	now := n.sim.Now()
	delay := n.jitterLocked(ps.p.TransferTime(size, pipelined), ps.p)
	// A later message must not overtake an earlier one on the same
	// pair (MPI's non-overtaking guarantee) — jitter or a smaller
	// payload could otherwise reorder deliveries.
	due := now + delay
	if due < ps.lastDue {
		due = ps.lastDue
		delay = due - now
	}
	ps.lastDue = due
	n.mu.Unlock()

	msg := msgPool.Get().(*Message)
	msg.From = e.name
	msg.To = to
	msg.Tag = tag
	msg.Payload = payload
	msg.Size = size
	msg.Sent = now
	msg.Delivered = 0
	msg.Cause = cause
	msg.net = n
	msg.dst = dst
	if ni := n.inst; ni != nil {
		ni.inflightMsgs.Add(1)
		ni.inflightBytes.Add(float64(size))
		ni.linkBusy.OnFor(delay)
	}
	n.sim.AfterArg(delay, deliverMsg, msg)
	return nil
}

// deliverMsg completes a message's flight. It is the single long-lived
// delivery callback shared by every send (via sim.AfterArg), so the
// per-hop schedule carries no closure.
func deliverMsg(arg any) {
	msg := arg.(*Message)
	n := msg.net
	// Re-check reachability at delivery time so a partition that
	// happened mid-flight also drops the message.
	trc := n.sim.Tracer()
	var spanName string
	n.mu.Lock()
	drop := n.unreachableLocked(msg.From) || n.unreachableLocked(msg.To)
	if drop {
		n.stats.Dropped++
		n.stats.MessagesSent--
		n.stats.BytesSent -= int64(msg.Size)
	} else if trc != nil {
		// The delivery span's name, built once per tag the fabric carries.
		if spanName = n.spanNames[msg.Tag]; spanName == "" {
			spanName = "msg." + msg.Tag
			n.spanNames[msg.Tag] = spanName
		}
	}
	tr := n.trace
	n.mu.Unlock()
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
		msg.Release()
		return
	}
	msg.Delivered = n.sim.Now()
	// One KindMsg event per committed delivery: destination, tag, and
	// wire size (all strings pre-existing — the record is alloc-free).
	n.aud.Record(audit.KindMsg, "netsim", msg.To, msg.Tag, int64(msg.Size), int64(msg.Delivered-msg.Sent))
	if tr != nil {
		tr(msg)
	}
	// One async span per delivered message (in-flight intervals
	// overlap freely); the from/to annotations carry the per-link
	// breakdown the constant-name traffic counters above do not.
	if trc != nil {
		trc.AsyncSpanLinkAt("netsim", spanName, msg.Cause, msg.Sent, msg.Delivered-msg.Sent,
			"from", msg.From, "to", msg.To, "size", strconv.Itoa(msg.Size))
	}
	msg.dst.deliver(msg)
}

// deliver queues m unless the handler takes it, or the endpoint is closed
// or no longer the one m was sent to: the name is the generation, so a
// message that was in flight when its destination was released never
// reaches whoever holds the storage now.
func (e *Endpoint) deliver(m *Message) {
	e.mu.Lock()
	if e.closed || m.To != e.name {
		e.mu.Unlock()
		m.Release()
		return
	}
	if h := e.handler; h != nil {
		// Not under e.mu: the handler sends, and may replace itself.
		e.mu.Unlock()
		if h(m) {
			return
		}
		e.mu.Lock()
	}
	e.queue = append(e.queue, m)
	e.mu.Unlock()
	e.gate.Broadcast()
}

// SetHandler installs h as e's receive handler, or removes it (nil). h
// runs in each message's delivery event, on the simulation's controller,
// and must not block. It takes the message (true), and then owns its
// Release, or declines it (false) and the message queues for Recv* as
// with no handler. Installing h first offers it the messages already
// queued, in order; the ones it declines stay queued in that order.
func (e *Endpoint) SetHandler(h func(*Message) bool) {
	e.mu.Lock()
	e.handler = h
	backlog := e.queue[e.head:]
	e.queue, e.head = nil, 0
	e.mu.Unlock()
	for _, m := range backlog {
		e.deliver(m)
	}
}

// Recv blocks until a message arrives and returns it.
func (e *Endpoint) Recv() (*Message, error) {
	return e.recv(nil, 0)
}

// RecvTimeout is Recv with a virtual-time deadline.
func (e *Endpoint) RecvTimeout(d time.Duration) (*Message, error) {
	return e.recv(nil, d)
}

// RecvMatch blocks until a message satisfying match arrives, leaving
// other queued messages untouched.
func (e *Endpoint) RecvMatch(match func(*Message) bool) (*Message, error) {
	return e.recv(match, 0)
}

// RecvMatchTimeout is RecvMatch with a virtual-time deadline.
func (e *Endpoint) RecvMatchTimeout(match func(*Message) bool, d time.Duration) (*Message, error) {
	return e.recv(match, d)
}

func (e *Endpoint) recv(match func(*Message) bool, timeout time.Duration) (*Message, error) {
	deadline := time.Duration(-1)
	if timeout > 0 {
		deadline = e.net.sim.Now() + timeout
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	name := e.name
	for {
		// A receiver woken by Release may find the storage already
		// serving a new name.
		if e.closed || e.name != name {
			return nil, ErrClosed
		}
		for i := e.head; i < len(e.queue); i++ {
			m := e.queue[i]
			if match == nil || match(m) {
				e.removeLocked(i)
				return m, nil
			}
		}
		if deadline < 0 {
			e.gate.Wait(&e.mu)
			continue
		}
		remain := deadline - e.net.sim.Now()
		if remain <= 0 || !e.gate.WaitTimeout(&e.mu, remain) {
			return nil, ErrTimeout
		}
	}
}

// removeLocked deletes the message at index i, keeping FIFO order for
// the rest. Callers hold e.mu.
func (e *Endpoint) removeLocked(i int) {
	if i == e.head {
		e.queue[i] = nil
		e.head++
	} else {
		copy(e.queue[i:], e.queue[i+1:])
		e.queue[len(e.queue)-1] = nil
		e.queue = e.queue[:len(e.queue)-1]
	}
	if e.head == len(e.queue) {
		e.queue = e.queue[:0]
		e.head = 0
	} else if e.head > 64 && e.head > len(e.queue)/2 {
		n := copy(e.queue, e.queue[e.head:])
		for j := n; j < len(e.queue); j++ {
			e.queue[j] = nil
		}
		e.queue = e.queue[:n]
		e.head = 0
	}
}

// Pending reports how many messages are queued.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue) - e.head
}

// Close unblocks all receivers with ErrClosed, removes the handler and
// discards queued messages. Closing twice is a no-op. It is how the
// fabric shuts down; an owner done with its endpoint calls
// Network.Release, which also forgets the name.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.handler = nil
	for i, m := range e.queue[e.head:] {
		m.Release()
		e.queue[e.head+i] = nil
	}
	e.queue = e.queue[:0] // the backing array serves the storage's next owner
	e.head = 0
	e.mu.Unlock()
	e.gate.Broadcast()
}
