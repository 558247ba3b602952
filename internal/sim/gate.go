package sim

import (
	"slices"
	"sync"
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
//	for !ready() {
//	    gate.Wait(nil)
//	}
//	... consume ...
//
// with the producer changing the state and calling Signal or Broadcast
// afterwards. The slot is the lock (see "Discipline" in the package
// comment): state that only actors and callbacks touch needs no mutex.
type Gate struct {
	sim *Simulation
	// Diagnostics read kind+name; the two are joined only in a deadlock
	// report, so naming or renaming a gate builds no string.
	kind, name string

	// How many actors are parked here and, while any is, the gate's
	// place on the kernel's list of such gates — what a deadlock report
	// walks, at no cost to parking but a counter.
	parked                 int
	nextParked, prevParked *Gate

	waiters []*worker
}

// A gate wait's state (worker.state).
const (
	wArmed    = iota // listed on the gate, no waker has claimed it
	wSignaled        // woken by Signal or Broadcast
	wTimed           // woken by its WaitTimeout deadline
)

// NewGate returns a Gate bound to s. The name appears in deadlock
// diagnostics.
func (s *Simulation) NewGate(name string) *Gate {
	return &Gate{sim: s, name: name}
}

// InitGate readies g, a Gate that lives inside its owner (an owner cut
// from a block carries its gate), for a family of gates that share a
// prefix: diagnostics read "gate:"+kind+name.
func (s *Simulation) InitGate(g *Gate, kind, name string) {
	*g = Gate{sim: s, kind: kind, name: name}
}

// Rename gives an idle gate a new name within its kind. The caller owns
// the gate and guarantees no actor is parked on it.
func (g *Gate) Rename(name string) {
	g.name = name
}

// Wait releases l and parks the calling actor until Signal or Broadcast
// wakes it, then re-acquires l before returning. l may be nil, and is in
// this module: one actor runs at a time, so the predicate needs no lock.
// Spurious wakeups do not occur, but callers should still re-check their
// predicate in a loop because another actor may consume the state first.
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
	s := g.sim
	w := s.cur
	if w == nil {
		panic("sim: " + call + onControllerPanic)
	}
	// List and park in one step: a waker finds the waiter only once its
	// park note exists, so the note it clears is this wait's.
	w.gate, w.state = g, wArmed
	w.gen++
	g.waiters = append(g.waiters, w)
	if d > 0 {
		s.pushLocked(d, event{w: w, gen: w.gen})
	}
	s.parkLocked(g)
	// The driver may run a callback that takes l.
	if l != nil {
		l.Unlock()
	}
	w.yield(struct{}{})
	resumed()
	if l != nil {
		l.Lock()
	}
	return w.state == wSignaled
}

// expire runs on the controller when the deadline of w's wait number
// gen is due. It times the wait out if and only if that wait is still
// armed: a Signal or Broadcast that won, or a later wait, makes it a
// no-op.
func (w *worker) expire(gen uint64) {
	g := w.gate
	if w.gen == gen && w.state == wArmed {
		i := slices.Index(g.waiters, w)
		g.waiters = slices.Delete(g.waiters, i, i+1)
		w.state = wTimed
		g.wake(w)
	}
}

// Signal wakes one parked waiter in FIFO order. It is a no-op when no
// actor is waiting. Signal may be called from actors or from At
// callbacks.
func (g *Gate) Signal() {
	if len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = slices.Delete(g.waiters, 0, 1)
		w.state = wSignaled
		g.wake(w)
	}
}

// Broadcast wakes every parked waiter. The emptied list keeps its
// backing array, so steady-state park/broadcast never reallocates.
func (g *Gate) Broadcast() {
	for _, w := range g.waiters {
		w.state = wSignaled
		g.wake(w)
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0]
}

// wake hands a waiter just taken off the list to the kernel's ready
// list.
func (g *Gate) wake(w *worker) {
	g.sim.unparkLocked(g)
	g.sim.readyLocked(w)
}
