// Package sim provides a discrete-event simulation kernel with virtual
// time and coroutine-based actors.
//
// The kernel lets ordinary Go code — daemons, schedulers, libraries —
// run as concurrent actors while all time-bearing operations (sleeps,
// message latencies, timeouts) advance a shared virtual clock instead of
// the wall clock. A simulation therefore executes in microseconds of
// real time yet reports the sub-second protocol latencies the modeled
// system would exhibit.
//
// # Actor model
//
// Every actor is spawned through Simulation.Go, GoNamed or GoArg (or is
// the main function passed to Run) and runs as a coroutine (iter.Pull)
// on one of the simulation's workers; a worker whose actor returned runs
// the next one spawned. Run's goroutine is the driver. It resumes one
// worker at a time, and the worker runs until its actor parks (Sleep, a
// Gate wait) or returns, switching straight back without the Go
// scheduler. A new actor, a Gate waiter woken by Signal or Broadcast and
// one whose WaitTimeout expired join one FIFO ready list, which the
// driver empties first. With the list empty it releases the events of
// the earliest pending instant in (at, seq) order, each once the work
// the previous one set off has parked: it runs a callback itself and
// resumes a sleeper at its wake. So which actor takes a seq or a lock
// first is never the Go scheduler's choice. If every actor is parked and
// no event is pending, the simulation is deadlocked and Run returns an
// error naming them.
//
// Actors spawned before Run wait on the ready list, ahead of main. Run
// returns once main has returned and the rest of its instant's batch has
// parked, and the idle workers exit. After that there is no driver: an
// actor woken in teardown (a daemon whose mailbox was closed) joins the
// ready list, and Release resumes the list on its caller's goroutine, in
// order, until it is empty, so those daemons can exit.
//
// An actor's panic is recovered and reported in Run's error. A
// callback's panic, and runtime.Goexit in a callback or an actor (which
// iter.Pull carries to the goroutine that resumed it), unwind Run's
// goroutine instead, leaving the kernel unhalted; an actor's Goexit in
// teardown unwinds Release's caller, and the kernel is not pooled.
//
// # In-place clock advance
//
// A Sleep whose wake would be the next event released does not park: it
// advances the clock itself, in the slot it holds anyway, when the ready
// list is empty and the instant's batch spent, Run is live, and now+d is
// within the deadline and before the earliest queued event.
// SleepSteps(d, n) is n Sleep(d) calls in one: the caller takes as many
// steps in place as that rule allows and parks at most once, and the
// driver takes the steps still owed in the same way, resuming the actor
// after the last. Clock, seqs, dispatches, instruments and release order
// are those of parked single sleeps; DESIGN.md §7 has the argument.
//
// # Discipline
//
// Actors must communicate only through sim-aware primitives (Sleep,
// Gate, and anything layered on them such as netsim mailboxes). The slot
// is the lock: while Run is live one actor or callback runs at a time,
// and nothing else touches the kernel or any component built on it, so
// per-simulation state needs no mutex. Kernel calls come from the slot,
// or from the goroutine that owns the simulation before Run and after it
// returns, never from another goroutine while Run is live; the clock,
// the observers and the dispatch count are plain fields for that reason.
// Run takes the kernel's mutex once and holds it until halt, so no
// kernel call takes a lock.
//
// Callbacks (At, After, AfterArg) and what they call, such as a netsim
// endpoint handler, run on the controller: on the driver, while no actor
// holds the slot. They may spawn, signal, send and schedule but must not
// block, and a Sleep or Gate wait there panics, naming the call. A
// daemon that only reacts to messages is cheapest written that way
// (pbs's server, moms).
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
	"sync"
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
	// mu is held by Run from its start to halt and by Release, so a
	// second Run or a Release from another goroutine waits for the run.
	mu      sync.Mutex
	now     time.Duration
	running int // resumed workers: at most 1 while Run is live
	actors  int // live actors (running, ready or parked)
	// cur is the worker holding the slot, nil on the controller.
	cur *worker
	// ready[readyHead:] is the FIFO of workers waiting for the slot.
	ready     []*worker
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

	// undispatched counts the events of the current batch not yet
	// released, the tail of s.batch: due now, but neither in the queue
	// nor running, and Sleep must not advance the clock past them.
	undispatched int
	// parks counts parkLocked calls. Only tests read it.
	parks uint64
	// idle lists the workers whose actor has returned.
	idle *worker

	panicked []string

	// The observers, nil when off: components resolve them at
	// construction. dispatches and queueDepth are the kernel's own
	// instruments in telem, nil without one.
	tracer     *trace.Tracer
	telem      *telemetry.Registry
	aud        *audit.Recorder
	dispatches *telemetry.Counter
	queueDepth *telemetry.Gauge

	// dispatched counts the events released since New or the last
	// reset. Unlike the sim.dispatches counter it is always on, for an
	// events/sec figure without a registry.
	dispatched uint64
}

// worker is a coroutine that runs actors one after another: idle once
// its actor returns, it runs the next one spawned. Parked, it is its
// actor: a ready entry and a wake event hold the worker, which holds
// what the park needs. The worker that holds the slot owns the kernel:
// it parks, returns or exits without taking a lock.
type worker struct {
	s      *Simulation
	resume func() (struct{}, bool) // iter.Pull's next; nil until first resumed
	stop   func()
	yield  func(struct{}) bool
	name   ActorName
	fn     func(any) // the actor, run as fn(arg)
	arg    any
	next   *worker // on the idle list
	// A parked SleepSteps: the step length, and how many steps are left
	// after the one its queued wake ends.
	d    time.Duration
	left int
	// A gate wait: the gate, the wait's number (stale deadlines carry
	// an older one) and its state.
	gate  *Gate
	gen   uint64
	state uint8
}

// slotHook and resumeHook are test seams, nil outside tests. slotHook
// runs in the slot whenever an actor parks or is resumed; resumeHook runs
// on an actor's goroutine as it starts and after every wake.
var slotHook func(s *Simulation)
var resumeHook func()

// New returns an empty simulation at virtual time zero.
func New() *Simulation {
	return &Simulation{}
}

// SetDeadline caps virtual time: Run returns ErrDeadline instead of
// advancing past d. Zero (the default) means unlimited: the guard
// against a runaway scenario, such as a periodic daemon outliving it.
// Call it before Run or from an actor.
func (s *Simulation) SetDeadline(d time.Duration) {
	s.deadline = d
}

// SetTracer installs (or, with nil, removes) the observability
// tracer and binds its clock to this simulation's virtual time. Every
// component layered on the simulation reads it through Tracer.
func (s *Simulation) SetTracer(t *trace.Tracer) {
	t.SetClock(s.Now)
	s.tracer = t
	s.bridgeTraceDrops()
}

// Tracer returns the active tracer, or nil when tracing is disabled.
// All trace.Tracer methods are nil-safe, so callers instrument
// unconditionally: s.Tracer().Start(...) is a no-op without a tracer.
func (s *Simulation) Tracer() *trace.Tracer {
	return s.tracer
}

// SetTelemetry installs (or, with nil, removes) the live-metrics
// registry. Components resolve their instruments from it at
// construction time; the kernel itself contributes the "sim.*"
// instruments (event dispatch rate, event-queue depth).
func (s *Simulation) SetTelemetry(reg *telemetry.Registry) {
	s.telem = reg
	s.dispatches = reg.Counter("sim.dispatches")
	s.queueDepth = reg.Gauge("sim.queue_depth")
	s.bridgeTraceDrops()
}

// bridgeTraceDrops connects the tracer's ring-buffer drop counter to
// the telemetry registry once both sinks are installed, so dropped
// spans surface in dacobs stat summaries and the Prometheus export.
// Install order does not matter: both setters call it.
func (s *Simulation) bridgeTraceDrops() {
	if s.tracer == nil || s.telem == nil {
		return
	}
	s.tracer.SetDropSink(s.telem.Counter("trace.dropped_spans"))
}

// Telemetry returns the active registry, or nil when telemetry is
// disabled. A nil registry hands out nil no-op instruments, so
// components resolve handles unconditionally.
func (s *Simulation) Telemetry() *telemetry.Registry {
	return s.telem
}

// SetAudit installs (or, with nil, removes) the flight recorder and
// binds its event clock to this simulation's virtual time.
func (s *Simulation) SetAudit(r *audit.Recorder) {
	r.SetClock(s.Now)
	s.aud = r
}

// Audit returns the active flight recorder, or nil when auditing is
// disabled. All audit.Recorder methods are nil-safe, so components
// record state deltas unconditionally.
func (s *Simulation) Audit() *audit.Recorder {
	return s.aud
}

// Now reports the current virtual time as an offset from the start of
// the simulation. Call it from the slot, or around Run (see
// "Discipline").
func (s *Simulation) Now() time.Duration {
	return s.now
}

// ActorName names an actor in parts, so that a per-job or per-request
// spawn builds no string: the parts are held by value and joined only
// when somebody reads the name, which is when the actor panics.
type ActorName struct {
	Kind    string // what the actor does: "task", "daemon-start", ...
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
	s.goLocked(name, callFunc, fn)
}

// callFunc runs a func() boxed as the argument of a func(any).
func callFunc(fn any) { fn.(func())() }

// GoArg spawns fn(arg) as a new actor: GoNamed without a closure, as
// AfterArg is After without one, for a long-lived fn and an arg that is
// already boxed.
func (s *Simulation) GoArg(name ActorName, fn func(any), arg any) {
	s.goLocked(name, fn, arg)
}

// goLocked readies fn(arg) on an idle worker, or on a new one when none
// is. Callers hold the slot, or run before Run.
func (s *Simulation) goLocked(name ActorName, fn func(any), arg any) {
	s.actors++
	w := s.idle
	if w == nil {
		w = &worker{s: s}
	} else {
		s.idle, w.next = w.next, nil
	}
	w.name, w.fn, w.arg = name, fn, arg
	s.readyLocked(w)
}

// loop is a worker's coroutine: it runs actors until it is stopped
// while idle or an actor returns after halt.
func (w *worker) loop(yield func(struct{}) bool) {
	s := w.s
	w.yield = yield
	for {
		w.run()
		s.actors--
		if s.halted {
			return
		}
		w.fn, w.arg, w.next, s.idle = nil, nil, s.idle, w
		if !yield(struct{}{}) {
			return
		}
	}
}

// run runs w's actor and records its panic. A runtime.Goexit ends the
// coroutine, and iter.Pull unwinds whoever resumed it.
func (w *worker) run() {
	returned := false
	defer func() {
		if returned {
			return
		}
		s := w.s
		if r := recover(); r != nil {
			s.panicked = append(s.panicked, fmt.Sprintf("%s: %v", w.name, r))
			return
		}
		s.actors--
	}()
	resumed()
	w.fn(w.arg)
	returned = true
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
	w := s.cur
	if w == nil {
		panic("sim: " + call + onControllerPanic)
	}
	k := s.takeStepsLocked(d, n)
	if k == n {
		return
	}
	w.d, w.left = d, n-k-1
	s.pushLocked(w.d, event{w: w}) // the wake that ends w's next step
	s.parkLocked(nil)
	w.yield(struct{}{})
	resumed()
}

// inPlaceLimitLocked is the latest instant the running actor may move
// the clock to in place (see "In-place clock advance"): the deadline,
// and strictly before the earliest queued event, or now itself, which no
// step reaches, while something else is due now or Run is not live.
// Callers hold the slot.
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
// allows and reports how many that was. Callers hold the slot.
func (s *Simulation) takeStepsLocked(d time.Duration, n int) int {
	k := int(min((s.inPlaceLimitLocked()-s.now)/d, time.Duration(n)))
	if k > 0 {
		s.advanceLocked(d, k)
	}
	return k
}

// advanceLocked takes k steps of d in place: the driver's
// bookkeeping for k one-event batches. The seqs the wakes would have
// carried are still consumed, so every later (at, seq) tie breaks as it
// would have. Callers hold the slot.
func (s *Simulation) advanceLocked(d time.Duration, k int) {
	t := s.now + time.Duration(k)*d
	s.seq += uint64(k)
	s.now = t
	s.dispatched += uint64(k)
	s.dispatches.Add(int64(k))
	s.queueDepth.Set(float64(s.events.len()))
}

// stepLocked runs as the driver releases a sleep's wake, and does what
// the woken actor would do next: take the steps still owed, in place as
// far as the rule allows, then queue the next one's wake. It reports
// whether it queued one, which leaves the actor parked. Callers hold
// the slot.
func (s *Simulation) stepLocked(w *worker) bool {
	if w.left -= s.takeStepsLocked(w.d, w.left); w.left > 0 {
		w.left--
		s.pushLocked(w.d, event{w: w}) // the wake that ends w's next step
		return true
	}
	return false
}

// At schedules fn to run at virtual time t (an offset from simulation
// start, clamped to the present). fn runs on the controller (see
// "Discipline") and must not block; it may spawn actors, signal gates,
// and schedule further callbacks.
func (s *Simulation) At(t time.Duration, fn func()) {
	s.pushLocked(max(t, s.now)-s.now, event{afn: callFunc, arg: fn})
}

// After schedules fn to run d of virtual time from now. See At.
func (s *Simulation) After(d time.Duration, fn func()) {
	s.pushLocked(max(d, 0), event{afn: callFunc, arg: fn})
}

// AfterArg schedules fn(arg) to run d of virtual time from now. It is
// the allocation-free variant of After for hot callers: fn is expected
// to be a long-lived (package-level) function and arg a reusable
// pointer, so scheduling captures no fresh closure. Semantics otherwise
// match After.
func (s *Simulation) AfterArg(d time.Duration, fn func(any), arg any) {
	s.pushLocked(max(d, 0), event{afn: fn, arg: arg})
}

// pushLocked queues ev d from now with the next seq. Callers hold the slot.
func (s *Simulation) pushLocked(d time.Duration, ev event) {
	s.seq++
	s.events.push(s.now, d, s.seq, ev)
}

// Run executes main as the root actor and drives the clock until main
// returns and the rest of that instant's batch has run. Other actors
// may still be parked when Run returns; closing their communication
// primitives (for example netsim mailboxes) lets them exit. Run returns
// an error if the simulation deadlocks or if any actor panicked. A
// callback's panic, and runtime.Goexit in a callback or an actor, unwind
// Run's goroutine instead.
func (s *Simulation) Run(main func()) error {
	s.mu.Lock()
	if s.mainSet {
		s.mu.Unlock()
		return errors.New("sim: Run called twice")
	}
	s.mainSet = true
	s.goLocked(ActorName{Kind: "main"}, callFunc, func() {
		defer func() { s.mainEnd = true }()
		main()
	})
	halted := false
	defer func() {
		if !halted {
			s.unwind()
		}
	}()
	s.drive()
	halted = true
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.panicErr()
}

// drive is the driver, on Run's goroutine. It resumes the head of the
// ready list or, with the list empty, releases the next event of the
// instant's batch, popping the next instant's when it is spent, until
// the run halts: a callback runs in place, a sleeper's wake resumes its
// worker. Callers hold the slot.
func (s *Simulation) drive() {
	for {
		var w *worker
		if s.readyHead != len(s.ready) {
			w = s.popReadyLocked()
		} else {
			if s.undispatched == 0 && !s.popBatchLocked() {
				return
			}
			ev := &s.batch[len(s.batch)-s.undispatched]
			s.undispatched--
			if ev.w == nil || ev.gen != 0 {
				ev.call()
				continue
			}
			if s.stepLocked(ev.w) {
				continue
			}
			s.unparkLocked(nil)
			w = ev.w
		}
		s.running++
		s.resumeLocked(w)
		s.running--
	}
}

// call runs a callback, or a gate wait's deadline.
func (ev *event) call() {
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.w.expire(ev.gen)
	}
}

// resumeLocked hands w the slot until its actor parks or returns.
// Callers hold the slot.
func (s *Simulation) resumeLocked(w *worker) {
	if w.resume == nil {
		w.resume, w.stop = iter.Pull(w.loop)
	}
	s.cur = w
	if slotHook != nil {
		slotHook(s)
	}
	w.resume()
	s.cur = nil
}

// unwind cleans up after a callback's panic or a runtime.Goexit has
// unwound Run: nothing is resumed any more, the idle workers exit as at
// halt, and Run lets go of s.mu.
func (s *Simulation) unwind() {
	s.cur, s.running = nil, 0
	s.stopIdleLocked()
	s.mu.Unlock()
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

// Release resumes the actors woken in teardown, in the order they were
// woken, until every one has parked or exited, and then returns the
// halted kernel to the pool. If an actor is still parked, a coroutine
// that would observe the next simulation, the kernel is not pooled.
// Release is a no-op until Run has returned.
func (s *Simulation) Release() {
	s.mu.Lock()
	if !s.halted {
		s.mu.Unlock()
		return
	}
	for s.readyHead != len(s.ready) {
		s.resumeLocked(s.popReadyLocked())
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
	s.seq = 0
	s.undispatched = 0
	s.deadline = 0
	s.mainSet = false
	s.mainEnd = false
	s.halted = false
	s.err = nil
	// Pending events at halt (periodic timers, lazily cancelled gate
	// deadlines) are dropped along with their callbacks.
	s.events.reset()
	clear(s.batch)
	s.batch = s.batch[:0]
	s.sleeping, s.parkedGates = 0, nil
	s.panicked = nil
	s.tracer, s.telem, s.aud = nil, nil, nil
	s.dispatches, s.queueDepth = nil, nil
	s.dispatched = 0
}

// Dispatches reports how many events the kernel has released so far.
// Call it from the slot, or around Run: after Run has returned it is
// the denominator-free half of an events-per-second throughput
// measurement (the caller supplies the wall clock).
func (s *Simulation) Dispatches() uint64 {
	return s.dispatched
}

func (s *Simulation) panicErr() error {
	if len(s.panicked) == 0 {
		return nil
	}
	return fmt.Errorf("sim: actor panics: %s", strings.Join(s.panicked, "; "))
}

// parkLocked marks the calling actor idle — asleep when g is nil, waiting
// on g otherwise — before it gives its running slot up. Callers hold
// the slot.
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
// Callers hold the slot.
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

// readyLocked makes w runnable: it joins the ready list, which the
// driver empties during Run and Release after it. Callers hold the slot.
func (s *Simulation) readyLocked(w *worker) {
	// The list need never drain: once full and at least half consumed,
	// slide the rest down rather than growing past the consumed head.
	if len(s.ready) == cap(s.ready) && 2*s.readyHead >= len(s.ready) {
		n := copy(s.ready, s.ready[s.readyHead:])
		clear(s.ready[n:])
		s.ready, s.readyHead = s.ready[:n], 0
	}
	s.ready = append(s.ready, w)
}

// popReadyLocked takes the head of the ready list. Callers hold the
// slot and know the list is not empty.
func (s *Simulation) popReadyLocked() *worker {
	w := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	return w
}

// popBatchLocked pops the events of the earliest pending instant into
// the reused s.batch (cleared first: a spent batch pins no closure) and
// moves the clock there, or halts the run: main has returned, nothing
// is pending, or the deadline would pass. Callers hold the slot.
func (s *Simulation) popBatchLocked() bool {
	switch {
	case s.mainEnd:
		s.haltLocked(nil)
	case s.events.len() == 0:
		s.haltLocked(fmt.Errorf("%w at %v: parked actors: %s", ErrDeadlock, s.now, s.blockedLocked()))
	case s.deadline > 0 && s.events.nextAt() > s.deadline:
		s.haltLocked(fmt.Errorf("%w: next event at %v, cap %v: parked actors: %s", ErrDeadline, s.events.nextAt(), s.deadline, s.blockedLocked()))
	default:
		t := s.events.nextAt()
		clear(s.batch)
		s.batch = s.events.popBatch(s.batch[:0])
		s.undispatched = len(s.batch)
		s.now = t
		s.dispatched += uint64(len(s.batch))
		s.dispatches.Add(int64(len(s.batch)))
		s.queueDepth.Set(float64(s.events.len()))
		return true
	}
	return false
}

// haltLocked ends the run with err: Run returns, and the idle workers
// exit. Callers hold the slot.
func (s *Simulation) haltLocked(err error) {
	s.halted, s.err = true, err
	s.stopIdleLocked()
}

// stopIdleLocked ends the idle workers' coroutines. Callers hold the slot.
func (s *Simulation) stopIdleLocked() {
	for w := s.idle; w != nil; w = w.next {
		w.stop()
	}
	s.idle = nil
}

// blockedLocked is the parked list ErrDeadlock and ErrDeadline report:
// "sleep×N" and one "gate:<kind><name>×N" per name, sorted; gates that
// share a name are counted together.
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
