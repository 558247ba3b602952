// Package sim provides a discrete-event simulation kernel with virtual
// time and goroutine-based actors.
//
// The kernel lets ordinary Go code — daemons, schedulers, libraries —
// run as concurrent goroutines while all time-bearing operations
// (sleeps, message latencies, timeouts) advance a shared virtual clock
// instead of the wall clock. A simulation therefore executes in
// microseconds of real time yet reports the sub-second protocol
// latencies the modeled system would exhibit.
//
// # Actor model
//
// Every goroutine that participates in a simulation must be spawned
// through Simulation.Go (or be the main function passed to Run). While
// Run is live one rule decides who runs: at most one actor holds the
// running slot. A new actor, a Gate waiter woken by Signal or Broadcast
// and one whose WaitTimeout expired join one FIFO ready list, and when
// the slot holder parks or exits the head of the list takes the slot.
// With the list empty, whoever gives the slot up dispatches: it releases
// the events of the earliest pending instant in (at, seq) order, each
// once the work the previous one set off has parked, running callbacks
// itself and handing a wake to its actor. So which actor takes a seq or
// a lock first is never the Go scheduler's choice. If every actor is
// parked and no event is pending, the simulation is deadlocked and Run
// returns an error naming them. Actors run on the simulation's worker
// goroutines: a worker whose actor returned runs the next one to start,
// and idle workers exit at halt.
//
// Actors spawned before Run wait on the ready list, ahead of main. Run
// returns once main has returned and the rest of its instant's batch has
// parked. After that, wakes are eager: the teardown that follows a run
// wakes every parked daemon so it can exit, and with no dispatcher left
// there is nothing to order them.
//
// # In-place clock advance
//
// A Sleep whose wake would be the next event released does not park: it
// advances the clock itself, under the kernel lock it holds anyway, when
// the ready list is empty and the instant's batch spent, Run is live,
// and now+d is within the deadline and before the earliest queued event.
// SleepSteps(d, n) is n Sleep(d) calls in one: the caller takes as many
// steps in place as that rule allows and parks at most once, and the
// dispatcher takes the steps still owed in the same way, waking the
// actor after the last. Clock, seqs, dispatches, instruments and release
// order are those of parked single sleeps; DESIGN.md §7 has the
// argument.
//
// # Discipline
//
// Actors must communicate only through sim-aware primitives (Sleep,
// Gate, and anything layered on them such as netsim mailboxes). An
// actor must never park while holding a lock that the waking actor
// needs.
//
// Callbacks (At, After, AfterArg) and what they call, such as a netsim
// endpoint handler, run on the controller: on whichever goroutine gave
// the slot up, in its place, with no slot of their own to give up. They
// may spawn, signal, send and schedule but must not block, and a Sleep
// or Gate wait there panics, naming the call. A daemon that only reacts
// to messages is cheapest written that way (pbs's server, moms).
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrDeadlock is wrapped by the error Run returns when every actor is
// parked and no timer event is pending.
var ErrDeadlock = errors.New("sim: deadlock")

// ErrDeadline is wrapped by the error Run returns when virtual time
// passes the cap set with SetDeadline — the runaway-simulation guard.
var ErrDeadline = errors.New("sim: virtual-time deadline exceeded")

// onControllerPanic follows the name of a blocking call made on the
// controller in what it panics with.
const onControllerPanic = " on the controller: a callback or endpoint handler must not block"

// Simulation owns a virtual clock and the set of actors advancing it.
// The zero value is not usable; call New.
type Simulation struct {
	mu   sync.Mutex
	cond *sync.Cond // signaled at halt, and after it when the slot falls free
	now  time.Duration
	// nowA mirrors now so Now() is lock-free: the hot paths (netsim
	// sends, tracer timestamps, scheduler priorities) read the clock
	// far more often than the dispatcher advances it.
	nowA    atomic.Int64
	running int // holders of the running slot: at most 1 while Run is live
	actors  int // live actors (running, ready or parked)
	// ready[readyHead:] is the FIFO of actors waiting for the slot.
	ready     []runnable
	readyHead int
	events    eventQueue
	batch     []event // dispatch scratch, reused across clock advances
	seq       uint64
	// What is parked, for deadlock diagnostics: the count of sleepers and
	// the list of gates with at least one waiter (through Gate.nextParked).
	sleeping    int
	parkedGates *Gate
	deadline    time.Duration // virtual-time cap; 0 = unlimited
	mainSet     bool
	mainEnd     bool
	halted      bool
	err         error // why the run halted; nil when main returned
	// onController is set while a callback runs: Sleep and Gate waits
	// there panic (see "Discipline").
	onController bool
	// reraise, set once a callback panicked and the dispatch stopped,
	// re-raises the panic on Run's caller's goroutine.
	reraise func()

	// undispatched counts the events of the current batch not yet
	// released, the tail of s.batch: due now, but neither in the queue
	// nor running, and Sleep must not advance the clock past them.
	undispatched int
	// parks counts parkLocked calls. Only tests read it.
	parks uint64
	// freeSteps lists the step records no parked sleep holds.
	freeSteps *stepRun
	// idle lists the workers whose actor has returned.
	idle *worker

	panicMu  sync.Mutex
	panicked []string

	// tracer is the active observability sink; nil (the default)
	// disables tracing. Atomic so the per-message and per-request hot
	// paths read it without taking s.mu.
	tracer atomic.Pointer[trace.Tracer]

	// telem is the active telemetry registry (nil disables it), and
	// kernelInst the kernel's own instruments, both resolved once in
	// SetTelemetry. Atomics for the same reason as tracer.
	telem      atomic.Pointer[telemetry.Registry]
	kernelInst atomic.Pointer[kernelInstruments]

	// aud is the active flight recorder (nil disables it); components
	// resolve it at construction like the tracer and registry.
	aud atomic.Pointer[audit.Recorder]

	// dispatched counts the events released since New or the last
	// reset. Unlike the sim.dispatches counter it is always on, for an
	// events/sec figure without a registry.
	dispatched atomic.Uint64
}

// runnable is an entry of the ready list: a parked actor's wake channel,
// or a new actor (wake == nil), which takes a worker with the slot.
type runnable struct {
	wake chan struct{}
	name ActorName
	fn   func()
}

// worker is a goroutine that runs actors one after another: idle once
// its actor returns, it runs the next new actor to take the slot.
type worker struct {
	wake chan struct{} // capacity 1: run fn, or exit when fn is nil
	name ActorName
	fn   func()
	next *worker // on the idle list
}

// stepRun is a parked sleep: the channel its actor waits on, the step
// length, and how many steps are left after the one its queued wake
// ends. The kernel owns the records and reuses them.
type stepRun struct {
	wake chan struct{}
	d    time.Duration
	left int
	next *stepRun // on the free list
}

// slotHook and resumeHook are test seams, nil outside tests. slotHook
// runs under s.mu whenever an actor parks or takes the running slot;
// resumeHook runs on an actor's goroutine as it starts and after every
// wake.
var slotHook func(s *Simulation)
var resumeHook func()

// kernelInstruments are the kernel's own live metrics: events
// dispatched, and the pending-event queue's depth at each advance.
type kernelInstruments struct {
	dispatches *telemetry.Counter
	queueDepth *telemetry.Gauge
}

// New returns an empty simulation at virtual time zero.
func New() *Simulation {
	s := &Simulation{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SetDeadline caps virtual time: Run returns ErrDeadline instead of
// advancing past d. Zero (the default) means unlimited: the guard
// against a runaway scenario, such as a periodic daemon outliving it.
func (s *Simulation) SetDeadline(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadline = d
}

// SetTracer installs (or, with nil, removes) the observability
// tracer and binds its clock to this simulation's virtual time. Every
// component layered on the simulation reads it through Tracer.
func (s *Simulation) SetTracer(t *trace.Tracer) {
	t.SetClock(s.Now)
	s.tracer.Store(t)
	s.bridgeTraceDrops()
}

// Tracer returns the active tracer, or nil when tracing is disabled.
// All trace.Tracer methods are nil-safe, so callers instrument
// unconditionally: s.Tracer().Start(...) is a no-op without a tracer.
func (s *Simulation) Tracer() *trace.Tracer {
	return s.tracer.Load()
}

// SetTelemetry installs (or, with nil, removes) the live-metrics
// registry. Components resolve their instruments from it at
// construction time; the kernel itself contributes the "sim.*"
// instruments (event dispatch rate, event-queue depth).
func (s *Simulation) SetTelemetry(reg *telemetry.Registry) {
	s.telem.Store(reg)
	if reg == nil {
		s.kernelInst.Store(nil)
		return
	}
	s.kernelInst.Store(&kernelInstruments{
		dispatches: reg.Counter("sim.dispatches"),
		queueDepth: reg.Gauge("sim.queue_depth"),
	})
	s.bridgeTraceDrops()
}

// bridgeTraceDrops connects the tracer's ring-buffer drop counter to
// the telemetry registry once both sinks are installed, so dropped
// spans surface in dacobs stat summaries and the Prometheus export.
// Install order does not matter: both setters call it.
func (s *Simulation) bridgeTraceDrops() {
	t := s.tracer.Load()
	reg := s.telem.Load()
	if t == nil || reg == nil {
		return
	}
	t.SetDropSink(reg.Counter("trace.dropped_spans"))
}

// Telemetry returns the active registry, or nil when telemetry is
// disabled. A nil registry hands out nil no-op instruments, so
// components resolve handles unconditionally.
func (s *Simulation) Telemetry() *telemetry.Registry {
	return s.telem.Load()
}

// SetAudit installs (or, with nil, removes) the flight recorder and
// binds its event clock to this simulation's virtual time.
func (s *Simulation) SetAudit(r *audit.Recorder) {
	r.SetClock(s.Now)
	s.aud.Store(r)
}

// Audit returns the active flight recorder, or nil when auditing is
// disabled. All audit.Recorder methods are nil-safe, so components
// record state deltas unconditionally.
func (s *Simulation) Audit() *audit.Recorder {
	return s.aud.Load()
}

// Now reports the current virtual time as an offset from the start of
// the simulation. It is safe to call from any goroutine and never
// blocks on the kernel lock.
func (s *Simulation) Now() time.Duration {
	return time.Duration(s.nowA.Load())
}

// ActorName names an actor in parts, so that a per-job or per-request
// spawn builds no string: the parts are held by value and joined only
// when somebody reads the name, which is when the actor panics.
type ActorName struct {
	Kind    string // what the actor does: "task", "ms", "irecv", ...
	Subject string // what it does it for, typically a job id
	Host    string // where it runs
}

// String renders the name as "kind/subject@host", leaving out an
// empty part together with its separator.
func (n ActorName) String() string {
	s := n.Kind
	if n.Subject != "" {
		s += "/" + n.Subject
	}
	if n.Host != "" {
		s += "@" + n.Host
	}
	return s
}

// Go spawns fn as a new actor. The name is used in panic reports only.
// Go may be called before Run or from any actor.
func (s *Simulation) Go(name string, fn func()) {
	s.GoNamed(ActorName{Kind: name}, fn)
}

// GoNamed is Go for an actor named in parts.
func (s *Simulation) GoNamed(name ActorName, fn func()) {
	s.mu.Lock()
	s.actors++
	s.readyLocked(runnable{name: name, fn: fn})
	s.mu.Unlock()
}

// work is a worker's goroutine: it runs actors until one returns after
// halt, or an exit token finds it idle.
func (s *Simulation) work(w *worker) {
	for s.runActor(w) {
		if <-w.wake; w.fn == nil {
			return
		}
	}
}

// runActor runs w's actor, then gives the slot up, w joining the idle
// list first unless the run has halted; it reports whether w did. A
// runtime.Goexit in fn ends the goroutine after the slot is given up.
func (s *Simulation) runActor(w *worker) (idle bool) {
	returned := false
	defer func() {
		r := recover()
		if r != nil {
			s.panicMu.Lock()
			s.panicked = append(s.panicked, fmt.Sprintf("%s: %v", w.name, r))
			s.panicMu.Unlock()
		}
		s.mu.Lock()
		s.actors--
		if idle = (returned || r != nil) && !s.halted; idle {
			w.fn, w.next, s.idle = nil, s.idle, w
		}
		s.yieldLocked()
		s.mu.Unlock()
	}()
	resumed()
	w.fn()
	returned = true
	return
}

// resumed runs the test seam, if any, on an actor that just took the slot.
func resumed() {
	if resumeHook != nil {
		resumeHook()
	}
}

// Sleep parks the calling actor for d of virtual time; it is
// SleepSteps(d, 1).
func (s *Simulation) Sleep(d time.Duration) { s.sleep(d, 1, "Sleep") }

// SleepSteps is n consecutive Sleep(d) calls in one, parking at most
// once (see "In-place clock advance"). A non-positive d or n returns at
// once. Only an actor may sleep.
func (s *Simulation) SleepSteps(d time.Duration, n int) { s.sleep(d, n, "SleepSteps") }

// sleep is SleepSteps; call names the caller for the panic on the
// controller.
func (s *Simulation) sleep(d time.Duration, n int, call string) {
	if d <= 0 || n <= 0 {
		return
	}
	s.mu.Lock()
	if s.onController {
		s.mu.Unlock()
		panic("sim: " + call + onControllerPanic)
	}
	k := s.takeStepsLocked(d, n)
	if k == n {
		s.mu.Unlock()
		return
	}
	st := s.freeSteps
	if st == nil {
		st = &stepRun{wake: make(chan struct{}, 1)}
	} else {
		s.freeSteps, st.next = st.next, nil
	}
	st.d, st.left = d, n-k-1
	s.pushStepLocked(st)
	s.parkLocked(nil)
	s.yieldLocked()
	s.mu.Unlock()
	<-st.wake
	resumed()
}

// inPlaceLimitLocked is the latest instant the running actor may move
// the clock to in place (see "In-place clock advance"): the deadline,
// and strictly before the earliest queued event, or now itself, which no
// step reaches, while something else is due now or Run is not live.
// Callers hold s.mu.
func (s *Simulation) inPlaceLimitLocked() time.Duration {
	if s.readyHead != len(s.ready) || s.undispatched != 0 || s.mainEnd || s.halted {
		return s.now
	}
	last := time.Duration(math.MaxInt64)
	if s.deadline > 0 {
		last = s.deadline
	}
	if s.events.len() > 0 {
		last = min(last, s.events.nextAt()-1)
	}
	return max(last, s.now)
}

// takeStepsLocked takes as many of n steps of d in place as the rule
// allows and reports how many that was. Callers hold s.mu.
func (s *Simulation) takeStepsLocked(d time.Duration, n int) int {
	k := int(min((s.inPlaceLimitLocked()-s.now)/d, time.Duration(n)))
	if k > 0 {
		s.advanceLocked(d, k)
	}
	return k
}

// advanceLocked takes k steps of d in place: the dispatcher's
// bookkeeping for k one-event batches. The seqs the wakes would have
// carried are still consumed, so every later (at, seq) tie breaks as it
// would have. Callers hold s.mu.
func (s *Simulation) advanceLocked(d time.Duration, k int) {
	t := s.now + time.Duration(k)*d
	s.seq += uint64(k)
	s.now = t
	s.nowA.Store(int64(t))
	s.dispatched.Add(uint64(k))
	if ki := s.kernelInst.Load(); ki != nil {
		ki.dispatches.Add(int64(k))
		ki.queueDepth.Set(float64(s.events.len()))
	}
}

// pushStepLocked queues the wake that ends st's next step. Callers hold
// s.mu.
func (s *Simulation) pushStepLocked(st *stepRun) {
	s.seq++
	s.events.push(event{at: s.now + st.d, seq: s.seq, wake: st.wake, arg: st})
}

// stepLocked runs as the dispatcher releases a sleep's wake, and does
// what the woken actor would do next: take the steps still owed, in
// place as far as the rule allows, then queue the next one's wake. It
// reports whether it queued one, which leaves the actor parked; with no
// step left the record goes back to the free list and the actor wakes.
// Callers hold s.mu.
func (s *Simulation) stepLocked(st *stepRun) bool {
	if st.left -= s.takeStepsLocked(st.d, st.left); st.left > 0 {
		st.left--
		s.pushStepLocked(st)
		return true
	}
	st.next, s.freeSteps = s.freeSteps, st
	return false
}

// At schedules fn to run at virtual time t (an offset from simulation
// start, clamped to the present). fn runs on the controller (see
// "Discipline") and must not block; it may spawn actors, signal gates,
// and schedule further callbacks.
func (s *Simulation) At(t time.Duration, fn func()) {
	s.mu.Lock()
	if t < s.now {
		t = s.now
	}
	s.pushLocked(t, fn)
	s.mu.Unlock()
}

// After schedules fn to run d of virtual time from now. See At.
func (s *Simulation) After(d time.Duration, fn func()) {
	s.mu.Lock()
	t := s.now + d
	if d < 0 {
		t = s.now
	}
	s.pushLocked(t, fn)
	s.mu.Unlock()
}

// AfterArg schedules fn(arg) to run d of virtual time from now. It is
// the allocation-free variant of After for hot callers: fn is expected
// to be a long-lived (package-level) function and arg a reusable
// pointer, so scheduling captures no fresh closure. Semantics otherwise
// match After.
func (s *Simulation) AfterArg(d time.Duration, fn func(any), arg any) {
	s.mu.Lock()
	t := s.now + d
	if d < 0 {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, afn: fn, arg: arg})
	s.mu.Unlock()
}

// Run executes main as the root actor and drives the clock until main
// returns and the rest of that instant's batch has run. Other actors
// may still be parked when Run returns; closing their communication
// primitives (for example netsim mailboxes) lets them exit. Run returns
// an error if the simulation deadlocks or if any actor panicked, and
// re-raises a callback's panic.
func (s *Simulation) Run(main func()) error {
	s.mu.Lock()
	if s.mainSet {
		s.mu.Unlock()
		return errors.New("sim: Run called twice")
	}
	s.mainSet = true
	s.actors++
	s.readyLocked(runnable{name: ActorName{Kind: "main"}, fn: func() {
		defer func() {
			s.mu.Lock()
			s.mainEnd = true
			s.mu.Unlock()
		}()
		main()
	}})
	// Run holds the slot only to hand it to the head of the ready list:
	// the first actor spawned before Run, or main.
	s.running++
	s.yieldLocked()
	for !s.halted && s.reraise == nil {
		s.cond.Wait()
	}
	reraise, err := s.reraise, s.err
	s.mu.Unlock()
	if reraise != nil {
		reraise()
	}
	if err != nil {
		return err
	}
	return s.panicErr()
}

// simPool recycles halted kernels, so trial runners (cluster.Run, the
// figure loops in internal/core) reuse their storage across trials.
var simPool = sync.Pool{New: func() any { return New() }}

// Acquire returns a kernel from the pool, fresh or released. Reuse
// affects only memory: a reacquired kernel starts at time and sequence
// zero, so a simulation behaves the same either way.
func Acquire() *Simulation {
	return simPool.Get().(*Simulation)
}

// Release returns a halted kernel to the pool once the actors woken in
// teardown have parked or exited. If any is still live, a goroutine
// that would observe the next simulation, the kernel is not pooled.
// Release is a no-op until Run has returned.
func (s *Simulation) Release() {
	s.mu.Lock()
	if !s.halted {
		s.mu.Unlock()
		return
	}
	for s.running > 0 {
		s.cond.Wait()
	}
	idle := s.actors == 0
	s.mu.Unlock()
	if !idle {
		return
	}
	s.reset()
	simPool.Put(s)
}

// reset restores a drained kernel to its initial state while keeping
// allocated capacity. Callers guarantee no goroutine references s.
func (s *Simulation) reset() {
	s.now = 0
	s.nowA.Store(0)
	s.seq = 0
	s.undispatched = 0
	s.deadline = 0
	s.mainSet = false
	s.mainEnd = false
	s.halted = false
	s.err = nil
	// Pending events at halt (periodic timers, lazily cancelled gate
	// expirations) are dropped along with their closures.
	clear(s.events.heap)
	s.events.heap = s.events.heap[:0]
	clear(s.events.lane)
	s.events.lane = s.events.lane[:0]
	clear(s.batch)
	s.batch = s.batch[:0]
	s.sleeping, s.parkedGates = 0, nil
	s.panicked = nil
	s.tracer.Store(nil)
	s.telem.Store(nil)
	s.kernelInst.Store(nil)
	s.aud.Store(nil)
	s.dispatched.Store(0)
}

// Dispatches reports how many events the kernel has released so
// far. It is safe to call from any goroutine, including after Run has
// returned — the denominator-free half of an events-per-second
// throughput measurement (the caller supplies the wall clock).
func (s *Simulation) Dispatches() uint64 {
	return s.dispatched.Load()
}

func (s *Simulation) panicErr() error {
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	if len(s.panicked) == 0 {
		return nil
	}
	return fmt.Errorf("sim: actor panics: %s", strings.Join(s.panicked, "; "))
}

// parkLocked marks the calling actor idle — asleep when g is nil, waiting
// on g otherwise — before it gives its running slot up. Callers hold
// s.mu.
func (s *Simulation) parkLocked(g *Gate) {
	s.parks++
	if g == nil {
		s.sleeping++
	} else if g.parked++; g.parked == 1 {
		g.prevParked, g.nextParked = nil, s.parkedGates
		if g.nextParked != nil {
			g.nextParked.prevParked = g
		}
		s.parkedGates = g
	}
	if slotHook != nil {
		slotHook(s)
	}
}

// unparkLocked is the waker's half of parkLocked: it clears the
// diagnostic note an actor about to be woken left when it parked.
// Callers hold s.mu.
func (s *Simulation) unparkLocked(g *Gate) {
	if g == nil {
		s.sleeping--
	} else if g.parked--; g.parked == 0 {
		if g.prevParked != nil {
			g.prevParked.nextParked = g.nextParked
		} else {
			s.parkedGates = g.nextParked
		}
		if g.nextParked != nil {
			g.nextParked.prevParked = g.prevParked
		}
		g.prevParked, g.nextParked = nil, nil
	}
}

// readyLocked makes r runnable: before and during Run it joins the
// ready list; after Run has returned it starts at once, beside whatever
// else is exiting. Callers hold s.mu.
func (s *Simulation) readyLocked(r runnable) {
	if s.halted {
		s.running++
		s.startLocked(r)
		return
	}
	// The list need never drain: once full and at least half consumed,
	// slide the rest down rather than growing past the consumed head.
	if len(s.ready) == cap(s.ready) && 2*s.readyHead >= len(s.ready) {
		n := copy(s.ready, s.ready[s.readyHead:])
		clear(s.ready[n:])
		s.ready, s.readyHead = s.ready[:n], 0
	}
	s.ready = append(s.ready, r)
}

// yieldLocked gives the running slot up and dispatches. The head of the
// ready list takes the slot; with the list empty the next event of the
// instant's batch is released, popping the next instant's when it is
// spent, or halting the run. A wake takes the slot and a callback runs
// here, in place, after which the loop goes on. Callers hold s.mu.
func (s *Simulation) yieldLocked() {
	for s.reraise == nil {
		if s.readyHead != len(s.ready) {
			r := s.ready[s.readyHead]
			s.ready[s.readyHead] = runnable{}
			s.readyHead++
			s.startLocked(r)
			return
		}
		if s.halted {
			if s.running--; s.running == 0 {
				s.cond.Broadcast()
			}
			return
		}
		if s.undispatched == 0 && !s.popBatchLocked() {
			return
		}
		ev := s.batch[len(s.batch)-s.undispatched]
		s.undispatched--
		if ev.wake == nil {
			s.callbackLocked(&ev)
		} else if !s.stepLocked(ev.arg.(*stepRun)) {
			s.unparkLocked(nil)
			s.startLocked(runnable{wake: ev.wake})
			return
		}
	}
}

// popBatchLocked pops the events of the earliest pending instant into
// the reused s.batch (cleared first: a spent batch pins no closure) and
// moves the clock there, or halts the run: main has returned, nothing
// is pending, or the deadline would pass. Callers hold s.mu.
func (s *Simulation) popBatchLocked() bool {
	switch {
	case s.mainEnd:
		s.haltLocked(nil)
	case s.events.len() == 0:
		s.haltLocked(fmt.Errorf("%w at %v: parked actors: %s", ErrDeadlock, s.now, s.blockedLocked()))
	case s.deadline > 0 && s.events.nextAt() > s.deadline:
		s.haltLocked(fmt.Errorf("%w: next event at %v, cap %v", ErrDeadline, s.events.nextAt(), s.deadline))
	default:
		t := s.events.nextAt()
		clear(s.batch)
		s.batch = s.events.popBatch(s.batch[:0])
		s.undispatched = len(s.batch)
		s.now = t
		s.nowA.Store(int64(t))
		s.dispatched.Add(uint64(len(s.batch)))
		if ki := s.kernelInst.Load(); ki != nil {
			ki.dispatches.Add(int64(len(s.batch)))
			ki.queueDepth.Set(float64(s.events.len()))
		}
		return true
	}
	return false
}

// haltLocked ends the run with err, giving up the slot for good: Run
// returns, and the idle workers exit. Callers hold s.mu.
func (s *Simulation) haltLocked(err error) {
	s.halted, s.err = true, err
	s.running--
	for w := s.idle; w != nil; w = w.next {
		w.wake <- struct{}{}
	}
	s.idle = nil
	s.cond.Broadcast()
}

// callbackLocked runs ev's callback in place, on the controller. A panic
// there, or a runtime.Goexit, stops the dispatch for good: Run re-raises
// it on its caller's goroutine. Callers hold s.mu, which is released
// while the callback runs.
func (s *Simulation) callbackLocked(ev *event) {
	s.onController = true
	s.mu.Unlock()
	returned := false
	defer func() {
		if returned {
			s.onController = false
			return
		}
		v := recover()
		s.mu.Lock()
		s.onController = false
		s.reraise = func() { panic(v) }
		s.cond.Broadcast()
		if v == nil { // runtime.Goexit: the goroutine unwinds on
			s.reraise = runtime.Goexit
			s.mu.Unlock()
		}
	}()
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
	returned = true
	s.mu.Lock()
}

// startLocked runs r on the slot its caller counted for it: a token on
// a parked actor's wake channel, or a worker for a new one, an idle one
// if there is any. Callers hold s.mu.
func (s *Simulation) startLocked(r runnable) {
	if slotHook != nil {
		slotHook(s)
	}
	if r.wake != nil {
		r.wake <- struct{}{}
		return
	}
	w := s.idle
	if w == nil {
		go s.work(&worker{wake: make(chan struct{}, 1), name: r.name, fn: r.fn})
		return
	}
	s.idle, w.next = w.next, nil
	w.name, w.fn = r.name, r.fn
	w.wake <- struct{}{}
}

// blockedLocked is the deadlock report: "sleep×N" and one
// "gate:<kind><name>×N" per name, sorted; gates that share a name are
// counted together.
func (s *Simulation) blockedLocked() string {
	byName := make(map[string]int)
	if s.sleeping > 0 {
		byName["sleep"] = s.sleeping
	}
	for g := s.parkedGates; g != nil; g = g.nextParked {
		byName["gate:"+g.kind+g.name] += g.parked
	}
	var parts []string
	for why, n := range byName {
		parts = append(parts, fmt.Sprintf("%s×%d", why, n))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, ", ")
}

// pushLocked schedules a callback. Callers hold s.mu.
func (s *Simulation) pushLocked(at time.Duration, fn func()) {
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn})
}
