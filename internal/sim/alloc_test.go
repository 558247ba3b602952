package sim

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// The kernel's hot paths — event dispatch, sleep/wake, and gate
// park/signal — must not allocate once storage is warm: event nodes
// live in the queue's reused backing arrays, wake channels and gate
// waiters come from pools, and the dispatch batch is recycled across
// instants. These tests pin that at exactly zero allocations per
// operation so a regression shows up as a test failure, not as a GC
// slope on the scale ladder.

// TestSleepWakeZeroAlloc pins a lone actor's Sleep — the in-place
// clock advance — at zero allocations per operation, and at zero parks:
// with nothing else runnable or due first, the sleeper never leaves the
// CPU.
func TestSleepWakeZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var allocs float64
	var parks uint64
	err := s.Run(func() {
		parks = s.parkCount()
		allocs = testing.AllocsPerRun(200, func() {
			s.Sleep(time.Microsecond)
		})
		parks = s.parkCount() - parks
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("Sleep steady state: %v allocs/op, want 0", allocs)
	}
	if parks != 0 {
		t.Fatalf("a lone sleeper parked %d times, want 0", parks)
	}
}

// TestSleepParkZeroAlloc pins the other path of Sleep — another actor's
// wake is due first, so the sleeper parks and comes back through the
// queue, the pooled wake channel and the controller — at zero
// allocations per operation, with every one of the sleeps parking.
func TestSleepParkZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var allocs float64
	var parks uint64
	const runs = 200
	err := s.Run(func() {
		s.Go("offbeat", func() {
			s.Sleep(time.Microsecond)
			for {
				s.Sleep(2 * time.Microsecond)
			}
		})
		for i := 0; i < 16; i++ { // warm the event queue, batch, and wake pool
			s.Sleep(2 * time.Microsecond)
		}
		parks = s.parkCount()
		allocs = testing.AllocsPerRun(runs, func() {
			s.Sleep(2 * time.Microsecond)
		})
		parks = s.parkCount() - parks
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("parked Sleep steady state: %v allocs/op, want 0", allocs)
	}
	// AllocsPerRun calls the function runs+1 times; the off-beat actor
	// parks once for each of main's sleeps, give or take the one it is
	// in when the count is read.
	if min := uint64(2 * runs); parks < min {
		t.Fatalf("%d parks over %d contended sleeps by two actors, want at least %d", parks, runs+1, min)
	}
}

// TestSleepStepsParkZeroAlloc pins a parked SleepSteps — another
// actor's wake is due at every other step, so the controller takes the
// steps for the parked caller and wakes it once, after the last — at
// zero allocations per call: the step record comes from the kernel's
// free list and the wakes live in the queue's reused storage.
func TestSleepStepsParkZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var allocs float64
	var parks uint64
	const runs = 200
	err := s.Run(func() {
		s.Go("offbeat", func() {
			s.Sleep(time.Microsecond)
			for {
				s.Sleep(2 * time.Microsecond)
			}
		})
		for i := 0; i < 16; i++ { // warm the event queue, batch, and free list
			s.SleepSteps(time.Microsecond, 8)
		}
		parks = s.parkCount()
		allocs = testing.AllocsPerRun(runs, func() {
			s.SleepSteps(time.Microsecond, 8)
		})
		parks = s.parkCount() - parks
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("parked SleepSteps steady state: %v allocs/op, want 0", allocs)
	}
	// Over the runs+1 calls the off-beat actor parks 4 times a call and
	// the caller once, give or take the call the count starts in.
	if want := uint64(5 * (runs + 1)); parks+5 < want || parks > want+5 {
		t.Fatalf("%d parks over %d SleepSteps calls of 8 steps, want about %d", parks, runs+1, want)
	}
}

func bumpCounter(a any) { *(a.(*int))++ }

// TestDispatchZeroAlloc pins closure-free timer dispatch (AfterArg
// scheduling plus controller pop and callback) at zero allocations
// per operation.
func TestDispatchZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var allocs float64
	hits := new(int)
	err := s.Run(func() {
		for i := 0; i < 16; i++ {
			s.AfterArg(time.Microsecond, bumpCounter, hits)
			s.Sleep(2 * time.Microsecond)
		}
		allocs = testing.AllocsPerRun(200, func() {
			s.AfterArg(time.Microsecond, bumpCounter, hits)
			s.Sleep(2 * time.Microsecond)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *hits == 0 {
		t.Fatal("callback never fired")
	}
	if allocs != 0 {
		t.Fatalf("dispatch steady state: %v allocs/op, want 0", allocs)
	}
}

// TestGateWaitSignalZeroAlloc pins the gate park/signal handoff at
// zero allocations per operation: waiters are pooled and parking counts
// on the gate itself.
func TestGateWaitSignalZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var allocs float64
	err := s.Run(func() {
		g := s.NewGate("zeroalloc")
		var mu sync.Mutex
		// Signal from a timer, not a spawned goroutine: Go allocates a
		// goroutine stack, which would drown the waiter-side
		// measurement. The closure is built once, outside the measured
		// region. The timer cannot fire before the actor parks (virtual
		// time only advances when every actor is parked), so a bare
		// Wait without a predicate is deterministic here.
		sig := func(any) { g.Signal() }
		ping := func() {
			s.AfterArg(time.Microsecond, sig, nil)
			mu.Lock()
			g.Wait(&mu)
			mu.Unlock()
		}
		for i := 0; i < 16; i++ {
			ping()
		}
		allocs = testing.AllocsPerRun(200, ping)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("gate wait/signal steady state: %v allocs/op, want 0", allocs)
	}
}

// TestSpawnNamedInPartsBuildsNoString pins what a name costs a spawn:
// an actor named in parts is spawned for what one with a constant name
// is, and the parts are joined for the panic report alone.
func TestSpawnNamedInPartsBuildsNoString(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var constant, parts float64
	err := s.Run(func() {
		body := func() {}
		spawn := func(fn func()) float64 {
			return testing.AllocsPerRun(200, func() {
				fn()
				s.Sleep(time.Microsecond) // the actor has come and gone
			})
		}
		constant = spawn(func() { s.Go("task", body) })
		parts = spawn(func() { s.GoNamed(ActorName{Kind: "task", Subject: "4711.pbs/server", Host: "cn12"}, body) })
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if parts != constant {
		t.Fatalf("spawning an actor named in parts: %v allocs, %v with a constant name", parts, constant)
	}
}

func TestActorNameIsJoinedInThePanicReport(t *testing.T) {
	s := New()
	err := s.Run(func() {
		s.GoNamed(ActorName{Kind: "task", Subject: "1.pbs/server", Host: "cn0"}, func() { panic("boom") })
		s.Go("plain", func() { panic("bang") })
		s.Sleep(time.Microsecond)
	})
	if err == nil || !strings.Contains(err.Error(), "task/1.pbs/server@cn0: boom") || !strings.Contains(err.Error(), "plain: bang") {
		t.Fatalf("panic report = %v, want the names joined as kind/subject@host", err)
	}
}
