// Package trace is the simulation-aware span layer: named spans in
// virtual time with parent/child causality, recorded in one event log
// that components publish to without coupling to any sink. Counters,
// gauges, and histograms live in internal/telemetry, the one
// instrument registry.
//
// The paper's evaluation (Section IV) is a measurement study of batch
// protocol latencies — daemon start, pbs_dynget round trips, scheduler
// cycle cost. This package makes those measurements first-class: every
// layer (pbs server, Maui scheduler, fabric, DAC library) opens spans
// on its hot paths; the events travel as "span" lines of a capture
// file (internal/capture) and render as a Chrome trace-event file
// (chrome.go, loadable in Perfetto).
//
// # Cost
//
// A nil *Tracer is the disabled tracer: every method is nil-receiver
// safe and returns immediately without allocating, so instrumented
// code calls tracer methods unconditionally. Components obtain the
// active tracer from their simulation (sim.Simulation.Tracer), which
// is a plain field read.
//
// An enabled span allocates nothing: the Span, which carries the Event
// it publishes, its annotations, its first link and the event log are
// all cut from chunks, each cut capped at its length so that growing
// one never writes into the next.
//
// # Concurrency
//
// A Tracer records one simulation, and the slot is its lock: the sim
// kernel runs one actor or callback at a time, so the tracer takes no
// mutex. Read it from inside the run or after it. Drivers that run
// simulations in parallel give each its own tracer (cluster.Observers).
package trace

import "time"

// EventKind discriminates log events.
type EventKind uint8

// Event kinds.
const (
	// KindSpan is a completed interval (Start..Start+Dur).
	KindSpan EventKind = iota
	// KindInstant is a point event.
	KindInstant
)

// KV is one string annotation on an event.
type KV struct {
	Key, Value string
}

// Event is one record of the log: a completed span or an instant.
// Virtual timestamps are offsets from simulation start.
type Event struct {
	Kind   EventKind
	Track  string // component track, e.g. "pbs/server", "maui", "netsim", "dac@cn0"
	Name   string
	Start  time.Duration
	Dur    time.Duration // KindSpan only
	ID     uint64        // span id (0 for instants)
	Parent uint64        // parent span id (0 = root)
	Async  bool          // may overlap others on its track (in-flight messages)
	Args   []KV
	// Links are causal edges to spans on other tracks: the ids of the
	// spans whose work produced this one (a message delivery links to
	// the sender's span, a mom.start links to the server's alloc).
	// Parent expresses same-track nesting; Links cross tracks.
	Links []uint64
}

// Tracer records events. Create with New; a nil Tracer is the
// disabled, allocation-free no-op.
type Tracer struct {
	clock  func() time.Duration // zeroClock while unbound
	nextID uint64
	// The event log grows by fixed-size chunks: an append never copies
	// what is already recorded, so a long run's log costs its own size
	// and not the doubled slices it outgrew on the way.
	chunks [][]Event
	count  int
	// Spans, annotations and first links are cut from these chunks.
	spans       []Span
	kvs         []KV
	links       []uint64
	limit       int      // max retained events; 0 = unbounded
	dropped     int64    // events discarded once the limit was hit
	dropSink    DropSink // optional live counter mirroring dropped
	dropsToSink int64    // drops already forwarded to the sink
}

// New returns an enabled tracer. Bind it to a simulation's virtual
// clock with SetClock (sim.Simulation.SetTracer does this for you);
// unbound, all timestamps read zero.
func New() *Tracer { return &Tracer{clock: zeroClock} }

func zeroClock() time.Duration { return 0 }

// SetClock installs the virtual-time source (typically
// sim.Simulation.Now); nil unbinds it. A tracer records one simulation.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil {
		return
	}
	if clock == nil {
		clock = zeroClock
	}
	t.clock = clock
}

// Span is an open interval created by Start or Child. End it exactly
// once; a nil Span (from a nil Tracer) ignores all calls.
type Span struct {
	t     *Tracer
	ev    Event // published by End, with Dur set
	ended bool
}

// Start opens a root span on a component track. kvs are alternating
// key/value annotation pairs.
func (t *Tracer) Start(track, name string, kvs ...string) *Span {
	if t == nil {
		return nil
	}
	return t.open(track, name, 0, kvs)
}

// Child opens a sub-span of s on the same track, establishing
// parent/child causality in the exported trace.
func (s *Span) Child(name string, kvs ...string) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(s.ev.Track, name, s.ev.ID, kvs)
}

// open cuts a span opened now from the current chunk.
func (t *Tracer) open(track, name string, parent uint64, kvs []string) *Span {
	t.nextID++
	sp := &cut(&t.spans, 1, chunkSpans)[0]
	*sp = Span{t: t, ev: Event{Kind: KindSpan, Track: track, Name: name, Start: t.clock(), ID: t.nextID, Parent: parent, Args: t.pairs(kvs)}}
	return sp
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	args := cut(&s.t.kvs, len(s.ev.Args)+1, chunkCuts)
	args[copy(args, s.ev.Args)] = KV{key, value}
	s.ev.Args = args
}

// Link records a causal edge from the span with the given id (usually
// on another track) to this span: the linked span's work caused this
// one. A zero id (from a nil span's ID) is ignored, so callers can
// thread ids through messages unconditionally.
func (s *Span) Link(id uint64) {
	if s == nil || id == 0 {
		return
	}
	if s.ev.Links == nil {
		s.ev.Links = s.t.link(id)
		return
	}
	s.ev.Links = append(s.ev.Links, id)
}

// ID returns the span's id (0 for the nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.ev.ID
}

// End closes the span and publishes a KindSpan event. Ending twice
// is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.ev.Dur = s.t.clock() - s.ev.Start
	s.t.publish(s.ev)
}

// AsyncSpanLinkAt records an already-measured interval, for layers that
// know a start and duration after the fact, like message delivery. The
// interval may overlap others on its track (messages in flight on the
// fabric); the Chrome exporter renders it as async (b/e) events, which
// viewers allow to interleave. cause links it to the span whose work
// produced it (the sender's span for a delivery); zero records no link.
func (t *Tracer) AsyncSpanLinkAt(track, name string, cause uint64, start, dur time.Duration, kvs ...string) {
	if t == nil {
		return
	}
	t.nextID++
	ev := Event{Kind: KindSpan, Track: track, Name: name, Start: start, Dur: dur, ID: t.nextID, Async: true, Args: t.pairs(kvs)}
	if cause != 0 {
		ev.Links = t.link(cause)
	}
	t.publish(ev)
}

// InstantAt publishes a point event at an explicit virtual timestamp
// (for re-publishing records that carry their own time, like
// accounting log lines).
func (t *Tracer) InstantAt(track, name string, at time.Duration, kvs ...string) {
	if t == nil {
		return
	}
	t.publish(Event{Kind: KindInstant, Track: track, Name: name, Start: at, Args: t.pairs(kvs)})
}

// publish appends to the event log, discarding once the configured
// limit is reached.
func (t *Tracer) publish(ev Event) {
	if t.limit > 0 && t.count >= t.limit {
		t.dropped++
		if t.dropSink != nil {
			t.dropSink.Add(1)
			t.dropsToSink++
		}
		return
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == chunkEvents {
		// The first chunk grows by append's doubling, so a short trace
		// stays small; every later one is allocated whole.
		var c []Event
		if last >= 0 {
			c = make([]Event, 0, chunkEvents)
		}
		t.chunks = append(t.chunks, c)
		last++
	}
	t.chunks[last] = append(t.chunks[last], ev)
	t.count++
}

// chunkEvents is how many events one chunk of the log holds (512 KB).
const chunkEvents = 4096

// DropSink receives one Add per event the ring-buffer limit
// discards. The interface is satisfied by *telemetry.Counter; trace
// cannot import telemetry (the dependency runs the other way), so the
// sim kernel bridges the two when both sinks are installed.
type DropSink interface {
	Add(delta int64)
}

// SetDropSink installs (or, with nil, removes) the live drop counter.
// Drops that happened before the sink was installed are replayed into
// it (exactly once, even if the bridge re-installs the same sink), so
// a late-bound registry still reports the true total.
func (t *Tracer) SetDropSink(s DropSink) {
	if t == nil {
		return
	}
	t.dropSink = s
	if s != nil && t.dropped > t.dropsToSink {
		s.Add(t.dropped - t.dropsToSink)
		t.dropsToSink = t.dropped
	}
}

// SetLimit caps the retained event log at n events; once full, later
// events are discarded (and counted — see Dropped) instead of growing
// the buffer without bound at 256-node scale. n <= 0 restores the
// default unbounded buffer.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.limit = max(n, 0)
}

// Dropped reports how many events the limit discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns a snapshot of all recorded events in publish order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.count == 0 {
		return nil
	}
	out := make([]Event, 0, t.count)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// pairs folds alternating key/value strings into annotations cut from
// the current chunk; a trailing odd key gets an empty value.
func (t *Tracer) pairs(kvs []string) []KV {
	if len(kvs) == 0 {
		return nil
	}
	out := cut(&t.kvs, (len(kvs)+1)/2, chunkCuts)
	for j := 0; j < len(kvs); j += 2 {
		out[j/2].Key = kvs[j]
		if j+1 < len(kvs) {
			out[j/2].Value = kvs[j+1]
		}
	}
	return out
}

// link returns a one-link slice cut from the current chunk.
func (t *Tracer) link(id uint64) []uint64 {
	l := cut(&t.links, 1, chunkCuts)
	l[0] = id
	return l
}

// cut returns n zeroed elements cut from *chunk, capped at n, starting
// a chunk of max(size, n) when the current one is short.
func cut[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(size, n))
	}
	i := len(*chunk)
	*chunk = (*chunk)[:i+n]
	return (*chunk)[i : i+n : i+n]
}

// chunkCuts is how many annotations (32 KB) or links (8 KB) one chunk
// holds, chunkSpans how many spans (36 KB).
const chunkCuts, chunkSpans = 1024, 256
