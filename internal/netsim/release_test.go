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
// sees it, and the name it was sent to no longer resolves, by name or
// through the handle that sent it.
func TestReleasedEndpointStaleDeliveryIsDiscarded(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, old := n.Endpoint("a"), n.Endpoint("daemon#1")
		h := n.Resolve("daemon#1")
		if err := a.SendTo(&h, "stale", nil, 0, 0); err != nil { // lands at 1ms
			t.Errorf("SendTo: %v", err)
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
		if err := a.SendTo(&h, "late", nil, 0, 0); !errors.Is(err, ErrUnknownPeer) {
			t.Errorf("send through the handle of a released name: %v, want ErrUnknownPeer", err)
			return
		}
		if got := reused.Pending(); got != 0 {
			t.Errorf("the storage's new owner holds %d messages, want none", got)
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

// Property: random open / send / release / reuse sequences leave the
// fabric agreeing with a reference model that is three maps and no
// sharing — which names resolve, which directed pairs exist, and the
// FIFO floor of every surviving pair — with both indexes of every pair
// state intact. Half the sends go through handles resolved once and kept
// across releases, from whichever sender: a send through a handle writes
// the pair state the fabric holds for its two ends, never the one the
// handle kept from before either end was released (dropped, or reused
// for another pair), so FIFO floors stay per pair.
func TestPropertyReleaseAgainstMapModel(t *testing.T) {
	var kept, refreshed int // sends through a handle that kept its pair state, or took another
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
			addrs := map[string]*Addr{}            // a handle of every name sent to
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
					var err error
					if a := addrs[to]; rng.Intn(2) == 0 {
						if a == nil {
							a = new(Addr)
							*a = n.Resolve(to)
							addrs[to] = a
						}
						before := a.ps
						err = live[from].SendTo(a, "t", nil, rng.Intn(4096), 0)
						if _, ok := live[to]; ok && err == nil {
							if ps := n.pairs[pairID(live[from], live[to])]; a.ps != ps {
								t.Errorf("seed %d step %d: handle %s keeps pair state %p, the pair %s -> %s is %p", seed, step, to, a.ps, from, to, ps)
								return
							}
							if a.ps == before {
								kept++
							} else {
								refreshed++
							}
						}
					} else {
						err = live[from].Send(to, "t", nil, rng.Intn(4096))
					}
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
					due := n.pairs[pairID(live[from], live[to])].lastDue
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
					ps := n.pairs[pairID(live[key[0]], live[key[1]])]
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
	if kept == 0 || refreshed == 0 {
		t.Errorf("handles kept their pair state in %d sends and took another in %d: both must happen", kept, refreshed)
	}
}
