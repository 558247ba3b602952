package sim

import (
	"testing"
	"time"
)

// signalGate is an AfterArg callback that signals the gate it is given.
func signalGate(g any) { g.(*Gate).Signal() }

// Workers are reused from actor to actor, and a wait that a Signal ended
// leaves its deadline queued. Waves of short-lived actors make timed and
// untimed waits, each on a fresh gate with its signal scheduled first,
// and sleep in between, so stale deadlines keep coming due while their
// workers run later waits, of the same actor or of the next wave's. Each
// wait must end at exactly its own signal or its own deadline, whichever
// is first (the signal on a tie): a stale deadline that ended a later
// wait would end it early and timed out.
func TestStaleDeadlinesNeverEndALaterWait(t *testing.T) {
	const waves, actors, waits = 20, 8, 12
	s := New()
	ran := map[uint64]bool{}
	err := s.Run(func() {
		ran[goid()] = true
		for wave := 0; wave < waves; wave++ {
			grp := s.NewGroup("wave")
			for a := 0; a < actors; a++ {
				rng := NewRNG(uint64(wave*actors + a + 1))
				grp.Go("waiter", func() {
					ran[goid()] = true
					for i := 0; i < waits; i++ {
						g := s.NewGate("once")
						signal := time.Duration(1+rng.Intn(20)) * time.Microsecond
						timeout := time.Duration(rng.Intn(21)) * time.Microsecond // 0: untimed
						s.AfterArg(signal, signalGate, g)
						start := s.Now()
						signaled := true
						if timeout == 0 {
							g.Wait(nil)
						} else {
							signaled = g.WaitTimeout(nil, timeout)
						}
						want, wantSignaled := signal, true
						if timeout > 0 && timeout < signal {
							want, wantSignaled = timeout, false
						}
						if got := s.Now() - start; got != want || signaled != wantSignaled {
							t.Errorf("wait %d (signal %v, timeout %v) ended after %v, signaled %v: want %v, %v",
								i, signal, timeout, got, signaled, want, wantSignaled)
							return
						}
						s.Sleep(time.Duration(rng.Intn(3)) * time.Microsecond)
					}
				})
			}
			grp.Wait()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ran) > actors+1 {
		t.Fatalf("%d waves of %d actors beside main ran on %d workers, want at most %d", waves, actors, len(ran), actors+1)
	}
}
