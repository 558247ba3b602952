package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var at time.Duration
	start := time.Now()
	err := s.Run(func() {
		s.Sleep(3 * time.Second)
		at = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 3*time.Second {
		t.Fatalf("virtual now = %v, want 3s", at)
	}
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("virtual sleep took %v of wall time", real)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	s := New()
	err := s.Run(func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
		if got := s.Now(); got != 0 {
			t.Errorf("now = %v after zero sleeps, want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestParallelSleepersOverlap(t *testing.T) {
	s := New()
	var done [3]time.Duration
	err := s.Run(func() {
		var wg sync.WaitGroup
		gate := s.NewGate("join")
		var mu sync.Mutex
		remaining := 3
		wg.Add(3)
		for i := 0; i < 3; i++ {
			i := i
			s.Go("sleeper", func() {
				defer wg.Done()
				s.Sleep(time.Duration(i+1) * time.Second)
				done[i] = s.Now()
				mu.Lock()
				remaining--
				mu.Unlock()
				gate.Broadcast()
			})
		}
		mu.Lock()
		for remaining > 0 {
			gate.Wait(&mu)
		}
		mu.Unlock()
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if done[i] != want {
			t.Errorf("sleeper %d finished at %v, want %v", i, done[i], want)
		}
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	s := New()
	err := s.Run(func() {
		for i := 0; i < 10; i++ {
			s.Sleep(100 * time.Millisecond)
		}
		if got := s.Now(); got != time.Second {
			t.Errorf("now = %v, want 1s", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAtCallbackRunsAtScheduledTime(t *testing.T) {
	s := New()
	var fired time.Duration = -1
	err := s.Run(func() {
		s.At(500*time.Millisecond, func() { fired = s.Now() })
		s.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 500*time.Millisecond {
		t.Fatalf("callback fired at %v, want 500ms", fired)
	}
}

func TestAtInThePastClampsToNow(t *testing.T) {
	s := New()
	var fired time.Duration = -1
	err := s.Run(func() {
		s.Sleep(time.Second)
		s.At(200*time.Millisecond, func() { fired = s.Now() })
		s.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != time.Second {
		t.Fatalf("callback fired at %v, want 1s (clamped)", fired)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fired time.Duration = -1
	err := s.Run(func() {
		s.Sleep(time.Second)
		s.After(250*time.Millisecond, func() { fired = s.Now() })
		s.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1250*time.Millisecond {
		t.Fatalf("callback fired at %v, want 1.25s", fired)
	}
}

func TestCallbackCanSpawnActor(t *testing.T) {
	s := New()
	var spawned time.Duration = -1
	gate := s.NewGate("done")
	var mu sync.Mutex
	ok := false
	err := s.Run(func() {
		s.At(time.Second, func() {
			s.Go("child", func() {
				s.Sleep(time.Second)
				spawned = s.Now()
				mu.Lock()
				ok = true
				mu.Unlock()
				gate.Signal()
			})
		})
		mu.Lock()
		for !ok {
			gate.Wait(&mu)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spawned != 2*time.Second {
		t.Fatalf("child finished at %v, want 2s", spawned)
	}
}

// A callback runs on the controller, which has no slot to give up: a
// blocking call there panics out of Run, naming itself, where a Sleep
// would otherwise move the clock under the controller and a Wait would
// hang Run with no deadlock error.
func TestBlockingOnTheControllerPanics(t *testing.T) {
	for _, tc := range []struct {
		call  string
		block func(s *Simulation, g *Gate)
	}{
		{"Sleep", func(s *Simulation, _ *Gate) { s.Sleep(time.Millisecond) }},
		{"SleepSteps", func(s *Simulation, _ *Gate) { s.SleepSteps(time.Millisecond, 3) }},
		{"Gate.Wait", func(_ *Simulation, g *Gate) { g.Wait(nil) }},
		{"Gate.WaitTimeout", func(_ *Simulation, g *Gate) { g.WaitTimeout(nil, time.Millisecond) }},
	} {
		t.Run(tc.call, func(t *testing.T) {
			s := New()
			g := s.NewGate("g")
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, "sim: "+tc.call+" on the controller") {
					t.Errorf("Run panicked with %q, want the call named", r)
				}
			}()
			_ = s.Run(func() {
				s.After(time.Millisecond, func() { tc.block(s, g) })
				s.Sleep(time.Second)
			})
			t.Errorf("Run returned")
		})
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	err := s.Run(func() {
		gate := s.NewGate("never")
		var mu sync.Mutex
		mu.Lock()
		gate.Wait(&mu) // nobody will ever signal
		mu.Unlock()
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "never") {
		t.Fatalf("deadlock error should name the gate: %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	s := New()
	if err := s.Run(func() {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := s.Run(func() {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestActorPanicIsReported(t *testing.T) {
	s := New()
	err := s.Run(func() {
		s.Go("bomb", func() { panic("boom") })
		s.Sleep(time.Millisecond)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestHalted(t *testing.T) {
	s := New()
	if s.Halted() {
		t.Fatal("fresh simulation reports halted")
	}
	if err := s.Run(func() {}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.Halted() {
		t.Fatal("finished simulation should report halted")
	}
}

func TestManyActorsDeterministicFinish(t *testing.T) {
	s := New()
	const n = 100
	finish := make([]time.Duration, n)
	err := s.Run(func() {
		var wg sync.WaitGroup
		wg.Add(n)
		gate := s.NewGate("all")
		var mu sync.Mutex
		left := n
		for i := 0; i < n; i++ {
			i := i
			s.Go("worker", func() {
				defer wg.Done()
				s.Sleep(time.Duration(i%10+1) * time.Millisecond)
				s.Sleep(time.Duration(i%7+1) * time.Millisecond)
				finish[i] = s.Now()
				mu.Lock()
				left--
				mu.Unlock()
				gate.Broadcast()
			})
		}
		mu.Lock()
		for left > 0 {
			gate.Wait(&mu)
		}
		mu.Unlock()
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		want := time.Duration(i%10+1)*time.Millisecond + time.Duration(i%7+1)*time.Millisecond
		if finish[i] != want {
			t.Errorf("worker %d finished at %v, want %v", i, finish[i], want)
		}
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	times := []time.Duration{5, 1, 3, 2, 4, 1, 5, 0}
	for i, at := range times {
		q.push(event{at: at, seq: uint64(i)})
	}
	var got []time.Duration
	var seqs []uint64
	for q.len() > 0 {
		at := q.nextAt()
		for _, ev := range q.popBatch(nil) {
			if ev.at != at {
				t.Fatalf("batch at %v contains event at %v", at, ev.at)
			}
			got = append(got, ev.at)
			seqs = append(seqs, ev.seq)
		}
	}
	want := []time.Duration{0, 1, 1, 2, 3, 4, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	// FIFO among equal timestamps: seq 1 before seq 5, seq 0 before seq 6.
	if seqs[1] != 1 || seqs[2] != 5 {
		t.Errorf("ties not FIFO: seqs=%v", seqs)
	}
	if seqs[6] != 0 || seqs[7] != 6 {
		t.Errorf("ties not FIFO at tail: seqs=%v", seqs)
	}
}

// TestEventQueueLaneHeapMerge drives the queue into the state where the
// heap and the same-instant lane both hold events at one instant — the
// lane held a different instant when the first event was pushed — and
// checks the batch comes out in global seq order.
func TestEventQueueLaneHeapMerge(t *testing.T) {
	var q eventQueue
	q.push(event{at: 1, seq: 1}) // lane starts at t=1
	q.push(event{at: 5, seq: 2}) // different instant: heap
	q.push(event{at: 5, seq: 3}) // still not laneAt: heap
	first := q.popBatch(nil)     // drains t=1, lane now empty
	q.push(event{at: 5, seq: 4}) // lane restarts at t=5
	q.push(event{at: 5, seq: 5}) // lane append
	q.push(event{at: 7, seq: 6}) // heap
	second := q.popBatch(nil)    // t=5: heap (2,3) merged with lane (4,5)
	if len(first) != 1 || first[0].seq != 1 {
		t.Fatalf("first batch = %+v, want the single t=1 event", first)
	}
	var seqs []uint64
	for _, ev := range second {
		if ev.at != 5 {
			t.Fatalf("t=5 batch contains event at %v", ev.at)
		}
		seqs = append(seqs, ev.seq)
	}
	for i, want := range []uint64{2, 3, 4, 5} {
		if seqs[i] != want {
			t.Fatalf("merged batch seqs = %v, want [2 3 4 5]", seqs)
		}
	}
	if rest := q.popBatch(nil); len(rest) != 1 || rest[0].seq != 6 {
		t.Fatalf("final batch = %+v, want the single t=7 event", rest)
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}
