package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Callbacks run in place on whichever goroutine gave the slot up, but a
// panic there still comes out of Run, on Run's caller's goroutine, with
// the value it was raised with. The run never halted, so Release keeps
// the kernel out of the pool: its clock still reads the panic's instant.
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
