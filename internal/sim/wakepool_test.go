package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestWakeChannelReuseStress hammers the reused wake channels (a
// sleep's step record, a gate waiter) from many actors at once: sleeps
// interleave with timed waits, signals, and broadcasts so recycled
// channels and waiters are constantly rearmed while stale timeout
// callbacks from their previous lives are still pending. A reused
// channel must be empty: no sleeper may wake before its deadline, which
// is exactly what a leaked stale token would cause. Run it with -race and -shuffle=on (scripts/check.sh
// does) to also exercise the memory-ordering side.
func TestWakeChannelReuseStress(t *testing.T) {
	const actors = 16
	const iters = 200
	s := New()
	err := s.Run(func() {
		g := s.NewGate("stress")
		var gmu sync.Mutex
		done := 0
		var dmu sync.Mutex
		joined := s.NewGate("stress-join")
		for a := 0; a < actors; a++ {
			rng := rand.New(rand.NewSource(int64(a) + 1))
			s.Go(fmt.Sprintf("stress%d", a), func() {
				defer func() {
					dmu.Lock()
					done++
					dmu.Unlock()
					joined.Signal()
				}()
				for i := 0; i < iters; i++ {
					switch rng.Intn(4) {
					case 0:
						before := s.Now()
						d := time.Duration(rng.Intn(50)+1) * time.Microsecond
						s.Sleep(d)
						if woke := s.Now(); woke < before+d {
							t.Errorf("sleeper woke at %v, deadline %v: stale wake token on a reused channel", woke, before+d)
							return
						}
					case 1:
						// Timed wait racing against Signal/Broadcast from
						// the other actors: whichever loses leaves a lazily
						// cancelled waker behind for the reuse machinery to
						// defeat.
						gmu.Lock()
						g.WaitTimeout(&gmu, time.Duration(rng.Intn(20)+1)*time.Microsecond)
						gmu.Unlock()
					case 2:
						g.Signal()
						s.Sleep(time.Microsecond)
					default:
						g.Broadcast()
						s.Sleep(time.Microsecond)
					}
				}
			})
		}
		dmu.Lock()
		for done < actors {
			joined.Wait(&dmu)
		}
		dmu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
