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
	pairs     map[[2]string]*pairState
	// The netsim.pairs digest's view of pairs, kept only under a
	// recorder: pairOrder in sorted key order as of the last digest
	// round, pairFresh the pairs created since.
	pairOrder []pairRef
	pairFresh []pairRef
	nameSeq   int
	down      map[string]bool
	downHosts map[string]bool
	rng       *sim.RNG
	trace     func(*Message)
	stats     Stats
	inst      *netInstruments
	// The two flags sit together after the pointer-wide fields so the
	// struct carries no reducible padding (pinned by the layout test
	// in internal/lint).
	anyDown bool // fast-path guard: no endpoint or host is down
	closed  bool
}

// pairRef is one entry of the digest's sorted view of the pair map.
type pairRef struct {
	key [2]string
	ps  *pairState
}

func (r pairRef) compare(o pairRef) int {
	if c := strings.Compare(r.key[0], o.key[0]); c != 0 {
		return c
	}
	return strings.Compare(r.key[1], o.key[1])
}

// pairState folds everything the per-message send path needs for one
// directed sender/receiver pair into a single map entry: the link
// parameters in effect and the FIFO floor that keeps jittered (or
// differently sized) messages from overtaking earlier ones.
type pairState struct {
	p        LinkParams
	override bool // p was set explicitly via SetLink
	lastDue  time.Duration
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
		pairs:     make(map[[2]string]*pairState),
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

// digestPairs hashes the fabric's per-pair FIFO state in sorted pair
// order: every directed sender/receiver pair that has carried traffic
// and the virtual deadline of its latest delivery. Pairs are only ever
// added, so the sorted order is kept from round to round: a round
// sorts the pairs created since the last one and merges them in.
func (n *Network) digestPairs(d *audit.Digest) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if fresh := n.pairFresh; len(fresh) > 0 {
		slices.SortFunc(fresh, pairRef.compare)
		// Merge from the back, into the room the fresh pairs add.
		i := len(n.pairOrder) - 1
		n.pairOrder = append(n.pairOrder, fresh...)
		for j, w := len(fresh)-1, len(n.pairOrder)-1; j >= 0; w-- {
			if i >= 0 && n.pairOrder[i].compare(fresh[j]) > 0 {
				n.pairOrder[w] = n.pairOrder[i]
				i--
			} else {
				n.pairOrder[w] = fresh[j]
				j--
			}
		}
		clear(fresh)
		n.pairFresh = fresh[:0]
	}
	d.WriteInt(int64(len(n.pairOrder)))
	for _, r := range n.pairOrder {
		d.WriteString(r.key[0])
		d.WriteString(r.key[1])
		d.WriteInt(int64(r.ps.lastDue))
	}
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
// name.
func (n *Network) Endpoint(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	e := &Endpoint{
		net:  n,
		name: name,
		gate: n.sim.NewGate("recv:" + name),
	}
	n.endpoints[name] = e
	return e
}

// pairLocked returns (creating if needed) the state of the directed
// pair from -> to. Callers hold n.mu.
func (n *Network) pairLocked(from, to string) *pairState {
	key := [2]string{from, to}
	ps, ok := n.pairs[key]
	if !ok {
		ps = &pairState{p: n.def}
		n.pairs[key] = ps
		if n.aud != nil {
			n.pairFresh = append(n.pairFresh, pairRef{key: key, ps: ps})
		}
	}
	return ps
}

// SetLink overrides parameters for the directed link from -> to.
func (n *Network) SetLink(from, to string, p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pairLocked(from, to)
	ps.p = p
	ps.override = true
}

// LinkParams reports the parameters in effect for the directed link
// from -> to.
func (n *Network) LinkParams(from, to string) LinkParams {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ps, ok := n.pairs[[2]string{from, to}]; ok && ps.override {
		return ps.p
	}
	return n.def
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
	name string
	gate *sim.Gate

	mu sync.Mutex
	// queue[head:] holds the undelivered messages. Dequeuing from the
	// front (the overwhelmingly common case: Recv with no matcher, or
	// a matcher that accepts the oldest message) advances head instead
	// of shifting the slice; the storage is reclaimed when the queue
	// drains or the dead prefix outgrows the live tail.
	queue  []*Message
	head   int
	closed bool
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
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if n.unreachableLocked(e.name) || n.unreachableLocked(to) {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil // dropped in flight; sender cannot tell
	}
	ps := n.pairLocked(e.name, to)
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
	n.mu.Lock()
	drop := n.unreachableLocked(msg.From) || n.unreachableLocked(msg.To)
	if drop {
		n.stats.Dropped++
		n.stats.MessagesSent--
		n.stats.BytesSent -= int64(msg.Size)
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
	if trc := n.sim.Tracer(); trc != nil {
		trc.AsyncSpanLinkAt("netsim", "msg."+msg.Tag, msg.Cause, msg.Sent, msg.Delivered-msg.Sent,
			"from", msg.From, "to", msg.To, "size", strconv.Itoa(msg.Size))
	}
	msg.dst.deliver(msg)
}

func (e *Endpoint) deliver(m *Message) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		m.Release()
		return
	}
	e.queue = append(e.queue, m)
	e.mu.Unlock()
	e.gate.Broadcast()
}

// Recv blocks until a message arrives and returns it.
func (e *Endpoint) Recv() (*Message, error) {
	return e.recv(nil, 0)
}

// RecvTimeout is Recv with a virtual-time deadline.
func (e *Endpoint) RecvTimeout(d time.Duration) (*Message, error) {
	return e.recv(nil, d)
}

// RecvTag blocks until a message with the given tag arrives, leaving
// other queued messages untouched.
func (e *Endpoint) RecvTag(tag string) (*Message, error) {
	return e.recv(func(m *Message) bool { return m.Tag == tag }, 0)
}

// RecvTagTimeout is RecvTag with a virtual-time deadline.
func (e *Endpoint) RecvTagTimeout(tag string, d time.Duration) (*Message, error) {
	return e.recv(func(m *Message) bool { return m.Tag == tag }, d)
}

// RecvMatch blocks until a message satisfying match arrives.
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
	for {
		if e.closed {
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

// Close unblocks all receivers with ErrClosed and discards queued
// messages. Closing twice is a no-op.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	dead := e.queue[e.head:]
	e.queue = nil
	e.head = 0
	e.mu.Unlock()
	for _, m := range dead {
		m.Release()
	}
	e.gate.Broadcast()
}
