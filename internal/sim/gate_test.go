package sim

import (
	"sync"
	"testing"
	"time"
)

func TestGateSignalWakesWaiter(t *testing.T) {
	s := New()
	var woke time.Duration = -1
	err := s.Run(func() {
		gate := s.NewGate("g")
		var mu sync.Mutex
		ready := false
		s.Go("producer", func() {
			s.Sleep(time.Second)
			mu.Lock()
			ready = true
			mu.Unlock()
			gate.Signal()
		})
		mu.Lock()
		for !ready {
			gate.Wait(&mu)
		}
		mu.Unlock()
		woke = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != time.Second {
		t.Fatalf("woke at %v, want 1s", woke)
	}
}

func TestGateWaitTimeoutExpires(t *testing.T) {
	s := New()
	err := s.Run(func() {
		gate := s.NewGate("g")
		var mu sync.Mutex
		mu.Lock()
		ok := gate.WaitTimeout(&mu, 2*time.Second)
		mu.Unlock()
		if ok {
			t.Error("WaitTimeout reported success with no signal")
		}
		if got := s.Now(); got != 2*time.Second {
			t.Errorf("timed out at %v, want 2s", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGateWaitTimeoutSignaledFirst(t *testing.T) {
	s := New()
	err := s.Run(func() {
		gate := s.NewGate("g")
		var mu sync.Mutex
		s.Go("producer", func() {
			s.Sleep(time.Second)
			gate.Signal()
		})
		mu.Lock()
		ok := gate.WaitTimeout(&mu, 10*time.Second)
		mu.Unlock()
		if !ok {
			t.Error("WaitTimeout reported timeout despite signal")
		}
		if got := s.Now(); got != time.Second {
			t.Errorf("woke at %v, want 1s", got)
		}
		// Let the lazily cancelled timer fire and return its slot.
		s.Sleep(20 * time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGateWaitTimeoutNonPositive(t *testing.T) {
	s := New()
	err := s.Run(func() {
		gate := s.NewGate("g")
		var mu sync.Mutex
		mu.Lock()
		if gate.WaitTimeout(&mu, 0) {
			t.Error("WaitTimeout(0) should report false")
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGateBroadcastWakesAll(t *testing.T) {
	s := New()
	const n = 5
	err := s.Run(func() {
		gate := s.NewGate("g")
		join := s.NewGate("join")
		var mu sync.Mutex
		go0 := false
		left := n
		for i := 0; i < n; i++ {
			s.Go("waiter", func() {
				mu.Lock()
				for !go0 {
					gate.Wait(&mu)
				}
				left--
				mu.Unlock()
				join.Signal()
			})
		}
		s.Sleep(time.Second)
		mu.Lock()
		go0 = true
		mu.Unlock()
		gate.Broadcast()
		mu.Lock()
		for left > 0 {
			join.Wait(&mu)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGateSignalNoWaitersIsNoop(t *testing.T) {
	s := New()
	err := s.Run(func() {
		gate := s.NewGate("g")
		gate.Signal()
		gate.Broadcast()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGateFIFOOrder(t *testing.T) {
	s := New()
	var order []int
	err := s.Run(func() {
		gate := s.NewGate("g")
		var mu sync.Mutex
		turn := -1
		join := s.NewGate("join")
		left := 3
		for i := 0; i < 3; i++ {
			i := i
			s.Go("waiter", func() {
				// Stagger arrival so the waiter queue order is i = 0,1,2.
				s.Sleep(time.Duration(i+1) * time.Millisecond)
				mu.Lock()
				for turn != i {
					gate.Wait(&mu)
				}
				order = append(order, i)
				left--
				mu.Unlock()
				join.Signal()
			})
		}
		s.Sleep(10 * time.Millisecond)
		for i := 0; i < 3; i++ {
			mu.Lock()
			turn = i
			mu.Unlock()
			gate.Broadcast()
			s.Sleep(time.Millisecond)
		}
		mu.Lock()
		for left > 0 {
			join.Wait(&mu)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

// A broadcast nobody is parked on — most mailbox deliveries — must leave
// the gate's waiter list alone: dropping its backing array there made
// the next Wait allocate a new one.
func TestGateIdleBroadcastKeepsWaiterList(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := New()
	var allocs float64
	err := s.Run(func() {
		g := s.NewGate("idle")
		var mu sync.Mutex
		sig := func(any) { g.Signal() }
		ping := func() {
			g.Broadcast() // no waiter
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
		t.Fatalf("idle broadcast between two waits: %v allocs/op, want 0", allocs)
	}
}

// A gate's kind and name are joined only in the deadlock report, and a
// renamed gate reports under its new name.
func TestGateKindAndRenameInDeadlockReport(t *testing.T) {
	s := New()
	err := s.Run(func() {
		g := s.NewGateKind("recv:", "old")
		g.Rename("mpi/p7@ac3")
		var mu sync.Mutex
		s.Go("waiter", func() {
			mu.Lock()
			g.Wait(&mu)
		})
		mu.Lock()
		s.NewGate("plain").Wait(&mu)
	})
	const want = "sim: deadlock at 0s: parked actors: gate:plain×1, gate:recv:mpi/p7@ac3×1"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}
