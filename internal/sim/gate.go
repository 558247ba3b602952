package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Gate is a condition variable integrated with the simulation's actor
// accounting: an actor parked in Wait does not count as runnable, so
// the virtual clock can advance past it.
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
// Signal or Broadcast afterwards (with or without mu held).
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
// bits. Exactly one waker wins the armed→fired transition via CAS, and
// the generation — bumped each time the waiter is reused — makes the
// lazily cancelled timeout callback of a previous life a guaranteed
// no-op: its CAS compares against the old generation's armed value,
// which can never be current again.
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

// fire attempts the armed→state transition. It reports false when
// another waker already claimed the waiter (or, for stale timeout
// callbacks, when the waiter moved on to a new generation).
func (w *gateWaiter) fire(state uint64) bool {
	cur := w.gs.Load()
	if cur&wStateMask != wArmed {
		return false
	}
	return w.gs.CompareAndSwap(cur, cur|state)
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
// or Broadcast wakes it, then re-acquires l before returning. Spurious
// wakeups do not occur, but callers should still re-check their
// predicate in a loop because another actor may consume the state
// first.
func (g *Gate) Wait(l sync.Locker) {
	w := newWaiter()
	// List and park in one step: a waker finds the waiter only once its
	// park note exists, so the note it clears is this wait's.
	g.mu.Lock()
	g.waiters = append(g.waiters, w)
	g.sim.mu.Lock()
	g.sim.parkLocked(g)
	g.sim.mu.Unlock()
	g.mu.Unlock()

	l.Unlock()
	<-w.ch
	waiterPool.Put(w)
	l.Lock()
}

// WaitTimeout is Wait with a virtual-time deadline. It reports false
// when the wait timed out before a Signal or Broadcast arrived.
func (g *Gate) WaitTimeout(l sync.Locker, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	w := newWaiter()
	gs := w.gs.Load() // this generation's armed value, captured for expire
	g.mu.Lock()
	g.waiters = append(g.waiters, w)
	g.sim.mu.Lock()
	g.sim.pushLocked(g.sim.now+d, nil, func() { g.expire(w, gs) })
	g.sim.parkLocked(g)
	g.sim.mu.Unlock()
	g.mu.Unlock()

	l.Unlock()
	<-w.ch
	timed := w.gs.Load()&wStateMask == wTimed
	// The timeout event may still be pending when a Signal won; it is
	// lazily cancelled — returning w to the pool is safe because the
	// generation bump on reuse defeats the stale callback's CAS.
	waiterPool.Put(w)
	l.Lock()
	return !timed
}

// expire runs on the controller when a WaitTimeout deadline fires. The
// CAS claims the waiter if and only if it is still armed in the same
// generation; a waiter already signaled — or recycled into a new wait —
// makes this a no-op.
func (g *Gate) expire(w *gateWaiter, gs uint64) {
	if !w.gs.CompareAndSwap(gs, gs|wTimed) {
		return
	}
	g.mu.Lock()
	ws := g.waiters
	for i, cand := range ws {
		if cand == w {
			copy(ws[i:], ws[i+1:])
			ws[len(ws)-1] = nil
			g.waiters = ws[:len(ws)-1]
			break
		}
	}
	g.mu.Unlock()
	g.sim.markRunnable(g)
	w.ch <- struct{}{}
}

// Signal wakes one parked waiter in FIFO order. It is a no-op when no
// actor is waiting. Signal may be called from actors or from At
// callbacks.
func (g *Gate) Signal() {
	g.mu.Lock()
	var w *gateWaiter
	ws := g.waiters
	n := 0 // consumed from the front
	for n < len(ws) {
		cand := ws[n]
		n++
		if cand.fire(wSignaled) {
			w = cand
			break
		}
	}
	if n > 0 {
		// Pop by shifting down, not reslicing: the backing array keeps
		// its capacity so steady-state park/signal never reallocates.
		rest := copy(ws, ws[n:])
		clear(ws[rest:])
		g.waiters = ws[:rest]
	}
	g.mu.Unlock()
	if w != nil {
		g.sim.markRunnable(g)
		w.ch <- struct{}{}
	}
}

// Broadcast wakes every parked waiter.
func (g *Gate) Broadcast() {
	g.mu.Lock()
	ws := g.waiters
	if len(ws) == 0 {
		// Nobody to wake: keep the list's backing array for the next Wait.
		g.mu.Unlock()
		return
	}
	g.waiters = nil
	g.mu.Unlock()
	for _, w := range ws {
		if w.fire(wSignaled) {
			g.sim.markRunnable(g)
			w.ch <- struct{}{}
		}
	}
	// Hand the emptied backing array back so the next Wait appends into
	// it instead of growing from nil (unless a new waiter raced in).
	clear(ws)
	g.mu.Lock()
	if g.waiters == nil {
		g.waiters = ws[:0]
	}
	g.mu.Unlock()
}
