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
// With the list empty the slot goes back to the controller, which
// releases the events of the earliest pending instant in (at, seq)
// order, each once the work the previous one set off has parked. So
// which actor takes a seq or a lock first is never the Go scheduler's
// choice. If every actor is parked and no event is pending, the
// simulation is deadlocked and Run returns an error naming them.
//
// Actors spawned before Run wait on the ready list, ahead of main. Run
// returns once main has returned and the rest of its instant's batch has
// parked. After that, wakes are eager: the teardown that follows a run
// wakes every parked daemon so it can exit, and with no controller left
// there is nothing to order them.
//
// # In-place clock advance
//
// Most sleeps in a run are taken by an actor that is about to be the
// next thing the controller wakes. Such a Sleep does not park. Under
// the kernel lock it already holds, it advances the clock itself and
// returns, when all three hold:
//
//  1. nothing else is due at this instant: the ready list is empty and
//     the controller has released every event of the instant's batch;
//  2. Run is live: main has not returned and the kernel has not halted
//     (a deadlock or the deadline halts it with main still parked);
//  3. now+d does not pass the deadline, and the queue is empty or its
//     earliest event is strictly later than now+d (an event queued at
//     exactly now+d was pushed earlier, has the lower seq and must run
//     first).
//
// Otherwise it queues its wake and parks, at no extra cost. Either way
// the release order is the same: parked, the caller's wake would be the
// controller's next one-event batch (by 3, and nothing is pushed in
// between: only the slot holder pushes), and the advance does that
// batch's bookkeeping: it consumes the wake's seq, moves the clock and
// counts the dispatch, so virtual time, event counts and every later
// tie-break are identical. DESIGN.md §7 has the argument in full, why
// the controller releases an instant as one batch, and the two
// neighbouring designs measured and rejected.
//
// # Steps
//
// SleepSteps(d, n) is n consecutive Sleep(d) calls with nothing in
// between (Maui charging its per-job cost along a walk of the queue is
// the caller). The caller takes as many steps in place as the rule
// above allows, in one advance. At the first step that would park it
// queues one wake carrying the count still owed, and parks once. When
// the controller releases that wake it does what the woken actor would
// do next, which is nothing but the next step: it advances in place
// under the same rule, or queues the next step's wake with a fresh seq,
// and wakes the actor only after the last step. Clock, seqs, dispatches,
// instruments and release order are those of the n sleeps.
//
// # Discipline
//
// Actors must communicate only through sim-aware primitives (Sleep,
// Gate, and anything layered on them such as netsim mailboxes). An
// actor must never park while holding a lock that the waking actor
// needs.
//
// Callbacks (At, After, AfterArg) and what they call, such as a netsim
// endpoint handler, run on the controller, which has no slot to give up:
// they may spawn, signal, send and schedule but must not block, and a
// Sleep or Gate wait there panics, naming the call. A daemon that only
// reacts to messages is cheapest written that way (pbs's server, moms).
package sim

import (
	"errors"
	"fmt"
	"math"
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
	cond *sync.Cond // signaled when the running slot falls free
	now  time.Duration
	// nowA mirrors now so Now() is lock-free: the hot paths (netsim
	// sends, tracer timestamps, scheduler priorities) read the clock
	// far more often than the controller advances it.
	nowA    atomic.Int64
	running int // holders of the running slot: at most 1 while Run is live
	actors  int // live actors (running, ready or parked)
	// ready[readyHead:] is the FIFO of actors waiting for the slot.
	ready     []runnable
	readyHead int
	events    eventQueue
	batch     []event // controller scratch, reused across clock advances
	seq       uint64
	// What is parked, for deadlock diagnostics: the count of sleepers and
	// the list of gates with at least one waiter (through Gate.nextParked).
	sleeping    int
	parkedGates *Gate
	deadline    time.Duration // virtual-time cap; 0 = unlimited
	mainSet     bool
	mainEnd     bool
	halted      bool
	// onController is set while the controller runs a callback: Sleep
	// and Gate waits there panic (see "Discipline").
	onController bool

	// undispatched counts the events of the current batch the controller
	// has yet to release, the tail of s.batch: due now, but neither in
	// the queue nor running, and Sleep must not advance the clock past
	// them.
	undispatched int
	// parks counts parkLocked calls. Only tests read it.
	parks uint64
	// freeSteps lists the step records no parked SleepSteps holds.
	freeSteps *stepRun

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

	// dispatched counts events the controller has released since the
	// kernel was created (or last recycled through the pool). Unlike
	// the sim.dispatches telemetry counter it is always on, so a CLI
	// can divide it by host wall time for an events/sec throughput
	// figure without installing a registry.
	dispatched atomic.Uint64
}

// runnable is an entry of the ready list: a parked actor's wake channel,
// or a new actor (wake == nil) whose goroutine starts when it takes the
// slot.
type runnable struct {
	wake chan struct{}
	name ActorName
	fn   func()
}

// stepRun is a parked SleepSteps: the channel its actor waits on, the
// step length, and how many steps are left after the one its queued
// wake ends. The kernel owns the records and reuses them.
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

// kernelInstruments are the kernel's own live metrics: how many
// events the controller has dispatched and how deep the pending-event
// queue is at each advance.
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
// advancing past d. Zero (the default) means unlimited. Use it as a
// guard against runaway scenarios (for example a periodic daemon
// keeping a simulation alive when the condition under test never
// occurs).
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

// actor is the goroutine of a spawned actor, started when it first
// takes the running slot; it gives the slot up when fn returns.
func (s *Simulation) actor(name ActorName, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.panicMu.Lock()
			s.panicked = append(s.panicked, fmt.Sprintf("%s: %v", name, r))
			s.panicMu.Unlock()
		}
		s.mu.Lock()
		s.actors--
		s.yieldLocked()
		s.mu.Unlock()
	}()
	resumed()
	fn()
}

// resumed runs the test seam, if any, on an actor that just took the slot.
func resumed() {
	if resumeHook != nil {
		resumeHook()
	}
}

// wakePool recycles the capacity-1 channels used to wake sleeping
// actors. See pushLocked for the lifecycle argument that makes reuse
// safe.
var wakePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Sleep parks the calling actor for d of virtual time. A non-positive
// duration returns immediately. Sleep must only be called from an
// actor goroutine.
//
// When the wake Sleep would queue is the very event the controller
// would release next, the caller advances the clock itself and keeps
// running instead of parking; see "In-place clock advance" in the
// package comment for the rule and why the release order is the same.
func (s *Simulation) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	if s.onController {
		s.mu.Unlock()
		panic("sim: Sleep" + onControllerPanic)
	}
	if s.now+d <= s.inPlaceLimitLocked() {
		s.advanceLocked(d, 1)
		s.mu.Unlock()
		return
	}
	ch := wakePool.Get().(chan struct{})
	s.pushLocked(s.now+d, ch, nil)
	s.parkLocked(nil)
	s.mu.Unlock()
	<-ch
	wakePool.Put(ch)
	resumed()
}

// SleepSteps is n consecutive Sleep(d) calls in one: the same clock, the
// same seqs consumed, the same dispatches and instruments and the same
// release order, but the caller parks at most once (see "Steps" in the
// package comment). A non-positive d or n returns immediately. Like
// Sleep, it must only be called from an actor goroutine.
func (s *Simulation) SleepSteps(d time.Duration, n int) {
	if d <= 0 || n <= 0 {
		return
	}
	s.mu.Lock()
	if s.onController {
		s.mu.Unlock()
		panic("sim: SleepSteps" + onControllerPanic)
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
	s.mu.Unlock()
	<-st.wake
	resumed()
}

// inPlaceLimitLocked is the latest instant the running actor may move
// the clock to in place: the deadline, and strictly before the earliest
// queued event (condition 3 of "In-place clock advance"), or now itself,
// which no step reaches, unless conditions 1 and 2 hold. Callers hold
// s.mu.
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

// advanceLocked takes k steps of d in place: the controller's
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

// stepLocked runs on the controller as it releases a SleepSteps wake,
// and does what the woken actor would do next: take the steps still
// owed, in place as far as the rule allows, then queue the next one's
// wake. It reports whether it queued one, which leaves the actor parked;
// with no step left the record goes back to the free list and the actor
// wakes. Callers hold s.mu.
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
// start, clamped to the present). fn executes on the controller
// goroutine and must not block; it may spawn actors, signal gates, and
// schedule further callbacks.
func (s *Simulation) At(t time.Duration, fn func()) {
	s.mu.Lock()
	if t < s.now {
		t = s.now
	}
	s.pushLocked(t, nil, fn)
	s.mu.Unlock()
}

// After schedules fn to run d of virtual time from now. See At.
func (s *Simulation) After(d time.Duration, fn func()) {
	s.mu.Lock()
	t := s.now + d
	if d < 0 {
		t = s.now
	}
	s.pushLocked(t, nil, fn)
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
// an error if the simulation deadlocks or if any actor panicked.
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
	// The controller holds the slot until it hands it to the head of the
	// ready list: the first actor spawned before Run, or main.
	s.running++
	s.yieldLocked()

	for {
		for s.running > 0 {
			s.cond.Wait()
		}
		if s.undispatched == 0 {
			// The batch is spent: stop, or pop every event due at the
			// earliest pending instant. The buffer is owned by the
			// controller and reused; clearing it before each pop means a
			// spent batch pins no wake channel or closure past the next.
			if s.mainEnd {
				s.halted = true
				s.mu.Unlock()
				return s.panicErr()
			}
			if s.events.len() == 0 {
				s.halted = true
				err := fmt.Errorf("%w at %v: parked actors: %s", ErrDeadlock, s.now, s.blockedLocked())
				s.mu.Unlock()
				return err
			}
			t := s.events.nextAt()
			if s.deadline > 0 && t > s.deadline {
				s.halted = true
				s.mu.Unlock()
				return fmt.Errorf("%w: next event at %v, cap %v", ErrDeadline, t, s.deadline)
			}
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
		}
		// Release the next event of the batch. It takes the slot, and
		// the wait at the top of the loop lets it and everything it
		// readies in turn park before the next event is released.
		ev := s.batch[len(s.batch)-s.undispatched]
		s.undispatched--
		if ev.wake != nil {
			if st, _ := ev.arg.(*stepRun); st != nil && s.stepLocked(st) {
				continue // the sleeper's next step is queued; it stays parked
			}
			s.running++
			s.unparkLocked(nil)
			s.startLocked(runnable{wake: ev.wake})
			continue
		}
		s.running++
		s.onController = true
		s.mu.Unlock()
		if ev.afn != nil {
			ev.afn(ev.arg)
		} else {
			ev.fn()
		}
		s.mu.Lock()
		s.onController = false
		s.yieldLocked()
	}
}

// simPool recycles halted kernels so trial runners (cluster.Run and
// the figure loops in internal/core) reuse the event queue, batch
// buffer, and diagnostics map across trials instead of reallocating
// them per trial.
var simPool = sync.Pool{New: func() any { return New() }}

// Acquire returns a kernel from the pool — either a fresh one or a
// reset, previously released one. Pooled reuse affects only memory: a
// reacquired kernel starts at virtual time zero with sequence zero, so
// simulations behave identically whether or not the kernel was
// recycled.
func Acquire() *Simulation {
	return simPool.Get().(*Simulation)
}

// Release returns a halted kernel to the pool. It waits for actors
// woken during teardown to finish exiting (a bounded wait: the last
// exiting actor broadcasts); if any actor is still parked after that —
// a leaked goroutine that would observe the next simulation — the
// kernel is simply not pooled and the garbage collector reclaims it.
// Release is a no-op before Run has returned.
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

// Dispatches reports how many events the controller has released so
// far. It is safe to call from any goroutine, including after Run has
// returned — the denominator-free half of an events-per-second
// throughput measurement (the caller supplies the wall clock).
func (s *Simulation) Dispatches() uint64 {
	return s.dispatched.Load()
}

// Halted reports whether Run has returned.
func (s *Simulation) Halted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.halted
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
// on g otherwise — and gives its running slot up. Callers hold s.mu.
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
	s.yieldLocked()
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

// yieldLocked gives the running slot up: the head of the ready list
// takes it, or, with the list empty, it goes back to the controller.
// Callers hold s.mu.
func (s *Simulation) yieldLocked() {
	if s.readyHead == len(s.ready) {
		s.running--
		if s.running == 0 {
			s.cond.Broadcast()
		}
		return
	}
	r := s.ready[s.readyHead]
	s.ready[s.readyHead] = runnable{}
	s.readyHead++
	s.startLocked(r)
}

// startLocked runs r on the slot its caller counted for it: a token on
// a parked actor's wake channel, or the goroutine of a new one. Callers
// hold s.mu.
func (s *Simulation) startLocked(r runnable) {
	if slotHook != nil {
		slotHook(s)
	}
	if r.wake != nil {
		r.wake <- struct{}{}
	} else {
		go s.actor(r.name, r.fn)
	}
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

// pushLocked schedules a wake or callback event. Callers hold s.mu.
//
// Wake-channel lifecycle: wake channels come from wakePool and are
// buffered with capacity 1. Each Sleep pushes its channel exactly once,
// and the controller signals it exactly once — a single non-blocking
// token send when the event's instant arrives. The sleeping actor
// returns the channel to the pool only after receiving that token, so a
// pooled channel is always empty when reused and a recycled channel can
// never be signaled on behalf of a previous Sleep: the one token it
// could ever carry was consumed before the channel re-entered the pool.
// (The controller signals by sending a token rather than closing the
// channel precisely so the channel survives reuse.)
func (s *Simulation) pushLocked(at time.Duration, wake chan struct{}, fn func()) {
	s.seq++
	s.events.push(event{at: at, seq: s.seq, wake: wake, fn: fn})
	// A waiting controller only re-checks once the slot is free; new
	// events need no extra signal because only the slot holder creates
	// them.
}
