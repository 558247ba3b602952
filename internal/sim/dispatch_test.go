package sim

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Callbacks run in place on the driver, Run's goroutine, so a panic
// there comes out of Run with the value it was raised with. The run
// never halted, so Release keeps the kernel out of the pool: its clock
// still reads the panic's instant.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	v := boom{7}
	s := New()
	defer func() {
		if r := recover(); r != v {
			t.Fatalf("Run panicked with %v, want %v", r, v)
		}
		s.Release()
		if now := s.Now(); now != 5*time.Millisecond {
			t.Fatalf("after Release the clock reads %v, want 5ms: the kernel was reset for the pool", now)
		}
	}()
	_ = s.Run(func() {
		s.After(5*time.Millisecond, func() { panic(v) })
		s.Sleep(time.Second)
	})
	t.Fatal("Run returned")
}

// An actor that waits on a gate gives up the gate's lock and its own
// before anything else runs: a callback due at the same instant takes
// both (mu, then the gate's through Signal) and must neither hang nor
// change the order of what happens.
func TestGateWaitReleasesItsLockBeforeDispatch(t *testing.T) {
	for _, timed := range []bool{false, true} {
		s := New()
		var log []string
		done := make(chan error, 1)
		go func() {
			done <- s.Run(func() {
				g := s.NewGate("g")
				var mu sync.Mutex
				ready := false
				s.After(0, func() {
					mu.Lock()
					log = append(log, "callback")
					ready = true
					g.Signal()
					mu.Unlock()
				})
				mu.Lock()
				for !ready {
					log = append(log, "wait")
					if timed {
						g.WaitTimeout(&mu, time.Second)
					} else {
						g.Wait(&mu)
					}
				}
				log = append(log, "woken@"+s.Now().String())
				mu.Unlock()
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("timed=%v: Run: %v", timed, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed=%v: Run hung: the waiter kept a lock the callback needs", timed)
		}
		if got, want := strings.Join(log, " "), "wait callback woken@0s"; got != want {
			t.Fatalf("timed=%v: %q, want %q", timed, got, want)
		}
	}
}

// goid parses the calling goroutine's id out of its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// Actors run on reused workers: 1,000 short actors spawned one after
// another, never more than two live at once (main and one of them), run
// on at most three goroutines. The workers exit at halt, so once Run and
// Release have returned the goroutine count falls back to where it was.
func TestWorkersAreReusedAndExitAtHalt(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	ran := map[uint64]int{}
	if err := s.Run(func() {
		ran[goid()]++
		for i := 0; i < 1000; i++ {
			s.Go("short", func() {
				ran[goid()]++
				s.Sleep(time.Microsecond)
			})
			s.Sleep(2 * time.Microsecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(ran) > 3 {
		t.Fatalf("1,001 actors, at most 2 live at once, ran on %d goroutines, want at most 3", len(ran))
	}
	s.Release()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after Release, %d before Run: workers outlive the run", runtime.NumGoroutine(), base)
		}
	}
}

// A worker that ran a GoArg actor goes idle holding neither the actor nor
// its arg, and reused, it runs the next actor with that actor's own: a
// GoArg, a panicking GoArg and a closure take turns on one worker.
func TestReusedWorkerKeepsNoStaleArg(t *testing.T) {
	s := New()
	var got []any
	record := func(arg any) { got = append(got, arg) }
	err := s.Run(func() {
		idle := func(step int) {
			if s.idle == nil || s.idle.next != nil {
				t.Fatalf("step %d: want exactly one idle worker", step)
			}
			if s.idle.fn != nil || s.idle.arg != nil {
				t.Errorf("step %d: the idle worker keeps fn %p and arg %v", step, s.idle.fn, s.idle.arg)
			}
		}
		for i := 0; i < 3; i++ {
			s.GoArg(ActorName{Kind: "arg"}, record, i)
			s.Sleep(time.Microsecond)
			idle(i)
		}
		s.GoArg(ActorName{Kind: "bad"}, func(arg any) { panic(arg) }, "gone")
		s.Sleep(time.Microsecond)
		idle(3)
		s.Go("closure", func() { got = append(got, "closure") })
		s.Sleep(time.Microsecond)
		idle(4)
	})
	if err == nil || !strings.Contains(err.Error(), "bad: gone") {
		t.Fatalf("Run: %v, want the GoArg actor's panic", err)
	}
	if want := []any{0, 1, 2, "closure"}; !slices.Equal(got, want) {
		t.Fatalf("actors saw %v, want %v", got, want)
	}
}

// waitForGoroutines fails t unless the goroutine count falls to at most
// n within five seconds.
func waitForGoroutines(t *testing.T, n int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after %s, want at most %d", runtime.NumGoroutine(), what, n)
		}
	}
}

// A callback's panic unwinds Run with the kernel unhalted, but the idle
// workers must not outlive it: fifty runs whose actors have all returned
// when a callback of the final instant panics leave the goroutine count
// where it was.
func TestCallbackPanicStopsIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := New()
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("Run panicked with %v, want boom", r)
				}
			}()
			_ = s.Run(func() {
				s.Go("late", func() {
					s.Sleep(time.Microsecond)
					s.At(2*time.Microsecond, func() { panic("boom") })
				})
				s.Sleep(2 * time.Microsecond)
			})
			t.Fatal("Run returned")
		}()
	}
	waitForGoroutines(t, base, "50 callback panics")
}

// runtime.Goexit in an actor or a callback unwinds Run's own goroutine:
// iter.Pull carries an actor's Goexit to the driver that resumed it. Run
// never returns, the kernel stays unhalted at the instant of the Goexit,
// and no idle worker is left behind; only main, parked, keeps its own.
func TestGoexitUnwindsRun(t *testing.T) {
	for _, where := range []string{"actor", "callback"} {
		base := runtime.NumGoroutine()
		s := New()
		returned, deferred := false, false
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { deferred = true }()
			_ = s.Run(func() {
				s.Go("short", func() {})
				if where == "actor" {
					s.Go("quitter", func() {
						s.Sleep(time.Millisecond)
						runtime.Goexit()
					})
				} else {
					s.After(time.Millisecond, runtime.Goexit)
				}
				s.Sleep(time.Second)
			})
			returned = true
		}()
		<-done
		if returned || !deferred {
			t.Fatalf("%s: Run returned %v, Run's caller's deferred calls ran %v: want false, true", where, returned, deferred)
		}
		if s.Halted() || s.Now() != time.Millisecond {
			t.Fatalf("%s: halted %v at %v, want unhalted at 1ms", where, s.Halted(), s.Now())
		}
		waitForGoroutines(t, base+1, where+" Goexit")
	}
}
