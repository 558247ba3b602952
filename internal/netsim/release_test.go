package netsim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// A message in flight to an endpoint that is released, and whose storage
// serves a new name before it lands, is discarded: the new owner never
// sees it, and the name it was sent to no longer resolves.
func TestReleasedEndpointStaleDeliveryIsDiscarded(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, old := n.Endpoint("a"), n.Endpoint("daemon#1")
		if err := a.Send("daemon#1", "stale", nil, 0); err != nil { // lands at 1ms
			t.Errorf("Send: %v", err)
			return
		}
		n.Release(old)
		reused := n.Endpoint("daemon#2")
		if reused != old {
			t.Error("the next endpoint did not take over the released storage")
			return
		}
		if reused.Name() != "daemon#2" {
			t.Errorf("reused endpoint is called %q", reused.Name())
			return
		}
		if _, err := reused.RecvTimeout(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("new owner received the old owner's message (err = %v)", err)
			return
		}
		if err := a.Send("daemon#1", "late", nil, 0); !errors.Is(err, ErrUnknownPeer) {
			t.Errorf("send to a released name: %v, want ErrUnknownPeer", err)
			return
		}
		// The storage works for its new owner.
		if err := a.Send("daemon#2", "fresh", nil, 0); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		if m, err := reused.Recv(); err != nil || m.Tag != "fresh" {
			t.Errorf("Recv = %v, %v", m, err)
			return
		}
	})
}

// Release wakes parked receivers with ErrClosed, fails later sends from
// the released endpoint, and is a no-op the second time: the storage
// enters the free list once.
func TestReleaseTwiceIsNoop(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		e := n.Endpoint("x")
		n.Endpoint("peer")
		got := make(chan error, 1)
		s.Go("receiver", func() {
			_, err := e.Recv()
			got <- err
		})
		s.Sleep(time.Millisecond)
		n.Release(e)
		n.Release(e)
		s.Sleep(time.Millisecond)
		if err := <-got; !errors.Is(err, ErrClosed) {
			t.Errorf("parked Recv woke with %v, want ErrClosed", err)
			return
		}
		if err := e.Send("peer", "t", nil, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("Send from a released endpoint: %v, want ErrClosed", err)
			return
		}
		if c := n.Census(); c.Endpoints != 1 || c.Pairs != 0 {
			t.Errorf("census after release = %+v", c)
			return
		}
		y, z := n.Endpoint("y"), n.Endpoint("z")
		if y == z {
			t.Error("one released endpoint was handed out twice")
			return
		}
		if y != e {
			t.Error("the released storage was not reused")
			return
		}
	})
}

// A SetLink override is configuration by name: it survives the release
// of either end and applies again to an endpoint created under the name.
func TestSetLinkSurvivesRelease(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		slow := LinkParams{Latency: 100 * time.Millisecond}
		a, b := n.Endpoint("a"), n.Endpoint("b")
		n.SetLink("a", "b", slow)
		a.Send("b", "t", nil, 0)
		if m, _ := b.Recv(); m.Delivered-m.Sent != slow.Latency {
			t.Errorf("override not in effect: %v", m.Delivered-m.Sent)
			return
		}
		n.Release(b)
		if p := n.LinkParams("a", "b"); p != slow {
			t.Errorf("override lost with the peer: %+v", p)
			return
		}
		b = n.Endpoint("b")
		a.Send("b", "t", nil, 0)
		if m, _ := b.Recv(); m.Delivered-m.Sent != slow.Latency {
			t.Errorf("override not applied to the new endpoint: %v", m.Delivered-m.Sent)
			return
		}
		n.Release(a)
		a = n.Endpoint("a")
		n.SetLink("a", "b", LinkParams{Latency: 7 * time.Millisecond}) // a live pair follows a new override
		a.Send("b", "t", nil, 0)
		a.Send("b", "t", nil, 0)
		b.Recv()
		if m, _ := b.Recv(); m.Delivered-m.Sent != 7*time.Millisecond {
			t.Errorf("second override: %v", m.Delivered-m.Sent)
			return
		}
	})
}

// Property: random open / send / release / reuse sequences leave the
// fabric agreeing with a reference model that is three maps and no
// sharing — which names resolve, which directed pairs exist, and the
// FIFO floor of every surviving pair — with both indexes of every pair
// state intact.
func TestPropertyReleaseAgainstMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		s := sim.New()
		n := New(s, LinkParams{Latency: time.Millisecond, JitterFrac: 0.5})
		n.Seed(seed)
		err := s.Run(func() {
			defer n.Close()
			live := map[string]*Endpoint{}         // model: names that resolve
			floor := map[[2]string]time.Duration{} // model: pair -> latest deadline
			var names []string                     // live names, in creation order
			next := 0
			pick := func() string { return names[rng.Intn(len(names))] }
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 2 || len(names) < 2: // open under a name never used before
					name := fmt.Sprintf("e%d", next)
					next++
					live[name] = n.Endpoint(name)
					names = append(names, name)
				case op < 8: // send, sometimes to a name that is gone
					from, to := pick(), pick()
					if rng.Intn(8) == 0 {
						to = fmt.Sprintf("e%d", rng.Intn(next))
					}
					err := live[from].Send(to, "t", nil, rng.Intn(4096))
					if _, ok := live[to]; !ok {
						if !errors.Is(err, ErrUnknownPeer) {
							t.Errorf("seed %d step %d: send to released %s: %v", seed, step, to, err)
							return
						}
						break
					}
					if err != nil {
						t.Errorf("seed %d step %d: Send: %v", seed, step, err)
						return
					}
					key := [2]string{from, to}
					due := n.pairs[pairKey{live[from], to}].lastDue
					if due < floor[key] || due < s.Now() {
						t.Errorf("seed %d step %d: pair %v floor went back: %v after %v", seed, step, key, due, floor[key])
						return
					}
					floor[key] = due
				case op < 9: // release, with messages possibly in flight
					i := rng.Intn(len(names))
					name := names[i]
					names = append(names[:i], names[i+1:]...)
					n.Release(live[name])
					delete(live, name)
					for key := range floor {
						if key[0] == name || key[1] == name {
							delete(floor, key)
						}
					}
				default: // let some deliveries land, drain a mailbox
					s.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					e := live[pick()]
					for e.Pending() > 0 {
						m, _ := e.Recv()
						if m.To != e.Name() {
							t.Errorf("seed %d step %d: %s received a message for %s", seed, step, e.Name(), m.To)
							return
						}
						m.Release()
					}
				}

				c := n.Census()
				if c.Endpoints != len(live) || c.Pairs != len(floor) || c.Dangling != 0 {
					t.Errorf("seed %d step %d: census %+v, model has %d endpoints and %d pairs", seed, step, c, len(live), len(floor))
					return
				}
				for name, e := range live {
					if n.Endpoint(name) != e {
						t.Errorf("seed %d step %d: %s resolves to another endpoint", seed, step, name)
						return
					}
				}
				for key, due := range floor {
					ps := n.pairs[pairKey{live[key[0]], key[1]}]
					if ps == nil || ps.lastDue != due || ps.to != live[key[1]] {
						t.Errorf("seed %d step %d: pair %v = %+v, model floor %v", seed, step, key, ps, due)
						return
					}
				}
			}
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return
		}
	}
}
