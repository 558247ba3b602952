package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

const testLatency = time.Millisecond

func testRuntime(t *testing.T, cfg Config) (*sim.Simulation, *Runtime, *netsim.Network) {
	t.Helper()
	s := sim.New()
	n := netsim.New(s, netsim.LinkParams{Latency: testLatency})
	return s, NewRuntime(n, cfg), n
}

// join is a sim-aware completion latch for test actors.
type join struct {
	mu   sync.Mutex
	gate *sim.Gate
	left int
}

func newJoin(s *sim.Simulation, n int) *join {
	return &join{gate: s.NewGate("join"), left: n}
}

func (j *join) done() {
	j.mu.Lock()
	j.left--
	j.mu.Unlock()
	j.gate.Broadcast()
}

func (j *join) wait() {
	j.mu.Lock()
	for j.left > 0 {
		j.gate.Wait(&j.mu)
	}
	j.mu.Unlock()
}

func TestSingletonWorld(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 1)
		rt.Launch("host0", "app", func(p *Proc) {
			defer j.done()
			if p.World().Rank() != 0 || p.World().Size() != 1 {
				t.Errorf("singleton world: rank=%d size=%d", p.World().Rank(), p.World().Size())
			}
			if p.Parent() != nil {
				t.Error("singleton should have no parent")
			}
			if p.Host() != "host0" {
				t.Errorf("host = %q", p.Host())
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWorldSendRecv(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 2)
		rt.LaunchWorld([]string{"h0", "h1"}, "pair", func(p *Proc) {
			defer j.done()
			w := p.World()
			if w.Rank() == 0 {
				if err := w.Send(1, 7, "ping", 0); err != nil {
					t.Errorf("Send: %v", err)
				}
				st, err := w.Recv(1, 8)
				if err != nil || st.Payload.(string) != "pong" {
					t.Errorf("Recv: %v %v", st, err)
				}
			} else {
				st, err := w.Recv(0, 7)
				if err != nil || st.Payload.(string) != "ping" {
					t.Errorf("Recv: %v %v", st, err)
				}
				if st.Source != 0 || st.Tag != 7 {
					t.Errorf("status = %+v", st)
				}
				if err := w.Send(0, 8, "pong", 0); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRecvWildcards(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 3)
		rt.LaunchWorld([]string{"h0", "h1", "h2"}, "w", func(p *Proc) {
			defer j.done()
			w := p.World()
			if w.Rank() == 0 {
				seen := map[int]bool{}
				for i := 0; i < 2; i++ {
					st, err := w.Recv(AnySource, AnyTag)
					if err != nil {
						t.Errorf("Recv: %v", err)
						return
					}
					seen[st.Source] = true
				}
				if !seen[1] || !seen[2] {
					t.Errorf("sources seen: %v", seen)
				}
			} else {
				if err := w.Send(0, w.Rank()*10, w.Rank(), 0); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRecvTimeoutOnComm(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 1)
		rt.Launch("h0", "lonely", func(p *Proc) {
			defer j.done()
			_, err := p.World().RecvTimeout(AnySource, AnyTag, 5*time.Millisecond)
			if !errors.Is(err, netsim.ErrTimeout) {
				t.Errorf("err = %v, want timeout", err)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 1)
		rt.Launch("h0", "app", func(p *Proc) {
			defer j.done()
			if err := p.World().Send(3, 0, nil, 0); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("err = %v, want ErrInvalidRank", err)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		const np = 4
		j := newJoin(s, np)
		var mu sync.Mutex
		var after []time.Duration
		rt.LaunchWorld([]string{"h0", "h1", "h2", "h3"}, "w", func(p *Proc) {
			defer j.done()
			// Stagger arrival: rank r sleeps r*10ms.
			s.Sleep(time.Duration(p.World().Rank()) * 10 * time.Millisecond)
			if err := p.World().Barrier(); err != nil {
				t.Errorf("Barrier: %v", err)
				return
			}
			mu.Lock()
			after = append(after, s.Now())
			mu.Unlock()
		})
		j.wait()
		// Nobody can exit the barrier before the slowest entry (30ms).
		for _, at := range after {
			if at < 30*time.Millisecond {
				t.Errorf("exited barrier at %v, before last arrival", at)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBcastDistributes(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		const np = 3
		j := newJoin(s, np)
		rt.LaunchWorld([]string{"h0", "h1", "h2"}, "w", func(p *Proc) {
			defer j.done()
			var in any
			if p.World().Rank() == 1 {
				in = "payload"
			}
			out, err := p.World().Bcast(1, in, 10)
			if err != nil {
				t.Errorf("Bcast: %v", err)
				return
			}
			if out.(string) != "payload" {
				t.Errorf("rank %d got %v", p.World().Rank(), out)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 1)
		rt.Launch("h0", "app", func(p *Proc) {
			defer j.done()
			if _, err := p.World().Bcast(5, nil, 0); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("err = %v", err)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
