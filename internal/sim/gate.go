package sim

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Gate is a condition variable integrated with the simulation's actor
// accounting: an actor parked in Wait does not hold the running slot,
// so the virtual clock can advance past it. Signal, Broadcast and a
// WaitTimeout expiry put the woken actor on the kernel's ready list; it
// runs once the actor that woke it parks or exits, never beside it (see
// "Actor model" in the package comment).
//
// Like sync.Cond, a Gate carries no predicate. The typical pattern is
//
//	mu.Lock()
//	for !ready() {
//	    gate.Wait(&mu)
//	}
//	... consume ...
//	mu.Unlock()
//
// with the producer holding mu around the state change and calling
// Signal or Broadcast afterwards (with or without mu held). State that
// only actors touch needs no mu at all (see Wait).
type Gate struct {
	sim *Simulation
	// Diagnostics read kind+name; the two are joined only in a deadlock
	// report, so naming or renaming a gate builds no string.
	kind, name string

	// Guarded by sim.mu: how many actors are parked here and, while any
	// is, the gate's place on the kernel's list of such gates — what a
	// deadlock report walks, at no cost to parking but a counter.
	parked                 int
	nextParked, prevParked *Gate

	mu      sync.Mutex
	waiters []*gateWaiter
}

// gateWaiter is one parked actor. Waiters are pooled: the actor that
// parked takes its waiter back from whoever woke it (the wake token is
// only sent after the waiter left the gate's list) and returns it to
// waiterPool on resume.
//
// gs packs a generation counter with the waiter's state in the low two
// bits. A waiter leaves the gate's list exactly once, under g.mu, and
// its state changes in the same step, so a listed waiter is always
// armed and Signal and Broadcast set theirs with a plain add. A timeout
// claims its waiter by CAS instead, and the generation — bumped each
// time the waiter is reused — makes the lazily cancelled timeout
// callback of a previous life a guaranteed no-op: its CAS compares
// against the old generation's armed value, which can never be current
// again.
type gateWaiter struct {
	ch chan struct{} // capacity 1; carries at most one wake token
	gs atomic.Uint64 // generation<<2 | state
}

const (
	wArmed     = 0 // parked, no waker has claimed it
	wSignaled  = 1 // woken by Signal or Broadcast
	wTimed     = 2 // woken by a WaitTimeout deadline
	wStateMask = 3
	wGenStep   = 4 // +1 generation
)

var waiterPool = sync.Pool{New: func() any { return &gateWaiter{ch: make(chan struct{}, 1)} }}

// newWaiter takes a waiter from the pool and re-arms it under a fresh
// generation, invalidating any stale timeout callback from its past.
func newWaiter() *gateWaiter {
	w := waiterPool.Get().(*gateWaiter)
	w.gs.Store((w.gs.Load() &^ wStateMask) + wGenStep)
	return w
}

// NewGate returns a Gate bound to s. The name appears in deadlock
// diagnostics.
func (s *Simulation) NewGate(name string) *Gate {
	return s.NewGateKind("", name)
}

// NewGateKind is NewGate for a family of gates that share a prefix:
// diagnostics read "gate:"+kind+name.
func (s *Simulation) NewGateKind(kind, name string) *Gate {
	return &Gate{sim: s, kind: kind, name: name}
}

// Rename gives an idle gate a new name within its kind. The caller owns
// the gate and guarantees no actor is parked on it.
func (g *Gate) Rename(name string) {
	g.sim.mu.Lock()
	g.name = name
	g.sim.mu.Unlock()
}

// Wait atomically releases l and parks the calling actor until Signal
// or Broadcast wakes it, then re-acquires l before returning. l may be
// nil when only actors read and write the predicate: one actor runs at a
// time, so it needs no lock. Spurious wakeups do not occur, but callers
// should still re-check their predicate in a loop because another actor
// may consume the state first.
func (g *Gate) Wait(l sync.Locker) { g.wait(l, 0, "Gate.Wait") }

// WaitTimeout is Wait with a virtual-time deadline. It reports false
// when the wait timed out before a Signal or Broadcast arrived.
func (g *Gate) WaitTimeout(l sync.Locker, d time.Duration) bool {
	return d > 0 && g.wait(l, d, "Gate.WaitTimeout")
}

// wait parks on g, with a timeout d of virtual time unless d is 0, and
// reports whether a Signal or Broadcast woke it. call names the caller
// for the panic on the controller.
func (g *Gate) wait(l sync.Locker, d time.Duration, call string) bool {
	// List and park in one step: a waker finds the waiter only once its
	// park note exists, so the note it clears is this wait's.
	g.mu.Lock()
	g.sim.mu.Lock()
	if g.sim.onController {
		g.sim.mu.Unlock()
		g.mu.Unlock()
		panic("sim: " + call + onControllerPanic)
	}
	w := newWaiter()
	gs := w.gs.Load() // this generation's armed value, captured for expire
	g.waiters = append(g.waiters, w)
	if d > 0 {
		g.sim.pushLocked(g.sim.now+d, nil, func() { g.expire(w, gs) })
	}
	g.sim.parkLocked(g)
	g.sim.mu.Unlock()
	g.mu.Unlock()

	if l != nil {
		l.Unlock()
	}
	<-w.ch
	timed := w.gs.Load()&wStateMask == wTimed
	// The timeout event may still be pending when a Signal won; it is
	// lazily cancelled — returning w to the pool is safe because the
	// generation bump on reuse defeats the stale callback's CAS.
	waiterPool.Put(w)
	resumed()
	if l != nil {
		l.Lock()
	}
	return !timed
}

// expire runs on the controller when a WaitTimeout deadline fires. The
// CAS claims the waiter if and only if it is still armed in the same
// generation; a waiter already signaled — or recycled into a new wait —
// makes this a no-op.
func (g *Gate) expire(w *gateWaiter, gs uint64) {
	g.mu.Lock()
	if w.gs.CompareAndSwap(gs, gs|wTimed) {
		i := slices.Index(g.waiters, w)
		g.waiters = slices.Delete(g.waiters, i, i+1)
		g.wake(w)
	}
	g.mu.Unlock()
}

// Signal wakes one parked waiter in FIFO order. It is a no-op when no
// actor is waiting. Signal may be called from actors or from At
// callbacks.
func (g *Gate) Signal() {
	g.mu.Lock()
	if len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = slices.Delete(g.waiters, 0, 1)
		w.gs.Add(wSignaled)
		g.wake(w)
	}
	g.mu.Unlock()
}

// Broadcast wakes every parked waiter. The emptied list keeps its
// backing array, so steady-state park/broadcast never reallocates.
func (g *Gate) Broadcast() {
	g.mu.Lock()
	for _, w := range g.waiters {
		w.gs.Add(wSignaled)
		g.wake(w)
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0]
	g.mu.Unlock()
}

// wake hands a waiter just taken off the list to the kernel's ready
// list. Callers hold g.mu.
func (g *Gate) wake(w *gateWaiter) {
	g.sim.mu.Lock()
	g.sim.unparkLocked(g)
	g.sim.readyLocked(runnable{wake: w.ch})
	g.sim.mu.Unlock()
}
