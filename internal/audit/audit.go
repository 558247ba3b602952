// Package audit is the simulator's flight recorder: a bounded ring of
// structured state-delta events emitted from the pbs server, the maui
// scheduler, the netsim fabric, the dac library, and the gpusim
// devices at each state-mutation site, plus an online invariant
// engine and periodic per-component state digests.
//
// The recorder answers the question the span tracer cannot: "what was
// the cluster state at virtual time T, and do both sides agree?". A
// run with the recorder enabled yields a deterministic recording (the
// "audit" lines of a capture file); two recordings are compared with
// Diff (or dacobs audit -diff) down to the first divergent event,
// which names the responsible component and virtual timestamp instead
// of leaving a whole-figure byte diff to eyeball.
//
// Everything is nil-safe in the style of the trace and telemetry
// layers: a nil *Recorder accepts every call as a no-op, so
// instrumentation sites record unconditionally and the disabled hot
// path stays free of branches and allocations.
package audit

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds. KindJob through KindCycle are state-delta events from
// the instrumented components; KindDigest and KindBreach are produced
// by the recorder itself (digest captures and invariant breaches).
const (
	KindJob     Kind = iota + 1 // job lifecycle transition (pbs)
	KindAlloc                   // accelerator/core allocation commit
	KindRelease                 // accelerator/core release
	KindNode                    // node free-count change
	KindMsg                     // netsim message commit (delivery)
	KindCycle                   // scheduler cycle boundary
	KindDigest                  // periodic component state digest
	KindBreach                  // invariant breach
)

// kindNames is indexed by Kind; slot 0 is unused.
var kindNames = [...]string{"", "job", "alloc", "release", "node", "msg", "cycle", "digest", "breach"}

// String names the kind as it appears in recordings.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindFromString parses the recording representation of a kind; it
// returns 0 for unknown names.
func KindFromString(s string) Kind {
	for i := 1; i < len(kindNames); i++ {
		if kindNames[i] == s {
			return Kind(i)
		}
	}
	return 0
}

// Event is one recorded state delta. The string fields reference
// strings the emitting component already holds (job ids, host names,
// message tags, constant transition labels), so recording an event
// never allocates; A and B carry the two event-specific integers
// (cores, counts, digest sums).
type Event struct {
	Seq    uint64        // recorder-assigned sequence number
	VT     time.Duration // virtual time of the mutation
	Kind   Kind
	Comp   string // emitting component: pbs, maui, netsim, dac, gpusim, audit
	Subj   string // subject: job id, host, pair, digest or invariant name
	Detail string // transition label, message tag, breach description
	A, B   int64
}

// DefaultCapacity is the ring size New uses when given a
// non-positive capacity: large enough to hold every event of a scale
// ladder point, small enough to stay cheap when only the tail
// matters.
const DefaultCapacity = 1 << 18

// Recorder is the flight recorder. All methods are safe on a nil
// receiver (no-ops), and safe for concurrent use.
type Recorder struct {
	clock func() time.Duration // virtual clock; nil until bound

	mu   sync.Mutex
	ring []Event
	n    uint64 // events ever recorded; ring slot is n % cap

	checks   atomic.Int64
	breaches atomic.Int64

	srcMu    sync.Mutex
	sources  map[string]digestSource
	sorted   []digestSource // sources by name; nil until the next round sorts them
	captures atomic.Int64   // digest capture rounds

	// onBreach, when set, runs after a breach event is recorded (used
	// to dump the recording the moment an invariant fails).
	onBreach func(Event)
}

type digestSource struct {
	comp, name string
	fn         func(*Digest)
}

// New returns a recorder whose ring holds capacity events (the oldest
// are overwritten beyond that); capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring:    make([]Event, capacity),
		sources: make(map[string]digestSource),
	}
}

// SetClock binds the virtual clock events are stamped with; the sim
// kernel calls this when the recorder is installed. Events recorded
// before a clock is bound carry VT 0.
func (r *Recorder) SetClock(now func() time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = now
	r.mu.Unlock()
}

// OnBreach registers a callback invoked (synchronously, on the
// breaching actor) after each invariant breach is recorded.
func (r *Recorder) OnBreach(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onBreach = fn
	r.mu.Unlock()
}

// Record appends one event to the ring. The signature is fully
// concrete — no interfaces, no variadics, no formatting — so a call
// on the disabled (nil) recorder performs zero allocations.
func (r *Recorder) Record(k Kind, comp, subj, detail string, a, b int64) {
	if r == nil {
		return
	}
	r.record(k, comp, subj, detail, a, b)
}

// record stores one event and returns a copy along with the breach
// callback captured under the same lock, so Check hands OnBreach the
// exact event it recorded even when other actors record concurrently.
func (r *Recorder) record(k Kind, comp, subj, detail string, a, b int64) (Event, func(Event)) {
	r.mu.Lock()
	e := &r.ring[r.n%uint64(len(r.ring))]
	e.Seq = r.n
	if r.clock != nil {
		e.VT = r.clock()
	} else {
		e.VT = 0
	}
	e.Kind = k
	e.Comp = comp
	e.Subj = subj
	e.Detail = detail
	e.A = a
	e.B = b
	r.n++
	ev, fn := *e, r.onBreach
	r.mu.Unlock()
	return ev, fn
}

// Check records the outcome of one invariant evaluation: satisfied
// checks only bump a counter, violations record a KindBreach event
// carrying the invariant name and fire the OnBreach callback.
func (r *Recorder) Check(comp, name, subj string, ok bool, a, b int64) {
	if r == nil {
		return
	}
	r.checks.Add(1)
	if ok {
		return
	}
	r.breaches.Add(1)
	e, fn := r.record(KindBreach, comp, name, subj, a, b)
	if fn != nil {
		fn(e)
	}
}

// Checks reports the number of invariant evaluations so far.
func (r *Recorder) Checks() int64 {
	if r == nil {
		return 0
	}
	return r.checks.Load()
}

// Breaches reports the number of invariant violations so far.
func (r *Recorder) Breaches() int64 {
	if r == nil {
		return 0
	}
	return r.breaches.Load()
}

// Len reports the number of events ever recorded (including any that
// have been overwritten in the ring).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.n)
}

// Dropped reports how many events were overwritten because the ring
// wrapped.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n > uint64(len(r.ring)) {
		return int64(r.n - uint64(len(r.ring)))
	}
	return 0
}

// Events returns a snapshot of the retained events in sequence order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	capN := uint64(len(r.ring))
	count := r.n
	if count > capN {
		count = capN
	}
	out := make([]Event, count)
	start := r.n - count
	for i := uint64(0); i < count; i++ {
		out[i] = r.ring[(start+i)%capN]
	}
	return out
}
