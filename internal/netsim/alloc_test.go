package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
)

// TestMessageHopZeroAlloc pins the steady-state send → deliver → recv
// hop at zero allocations per operation, under -race too: the flight
// comes from the fabric's free list, delivery is scheduled through the
// kernel's closure-free AfterArg path, and the endpoint queue and gate
// waiter storage are reused across hops. The payload is a constant, so
// its interface conversion uses static storage. A send by name and one
// through a resolved handle are the two inputs.
func TestMessageHopZeroAlloc(t *testing.T) {
	for _, byName := range []bool{true, false} {
		s := sim.New()
		var allocs float64
		err := s.Run(func() {
			n := New(s, LinkParams{Latency: time.Microsecond})
			a := n.Endpoint("a")
			b := n.Endpoint("b")
			defer a.Close()
			defer b.Close()
			to := n.Resolve("b")
			hop := func() {
				var err error
				if byName {
					err = a.Send("b", "ping", "payload", 64)
				} else {
					err = a.SendTo(&to, "ping", "payload", 64, 0)
				}
				if err != nil {
					t.Errorf("Send: %v", err)
				}
				if _, err := b.Recv(); err != nil {
					t.Errorf("Recv: %v", err)
				}
			}
			for i := 0; i < 16; i++ { // warm the free list, queues, pools and handle
				hop()
			}
			allocs = testing.AllocsPerRun(200, hop)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if allocs != 0 {
			t.Fatalf("message hop steady state (by name %v): %v allocs/op, want 0", byName, allocs)
		}
	}
}

// TestPairsDigestCoversLivePairsAllocatesNothing: the netsim.pairs
// digest is the count of live pairs and the sum of their hashes, so it
// reads the same whatever order the pairs first carried traffic in (or
// the maps are walked in), allocates nothing, takes in a pair that
// appears later, forgets the pairs of a released endpoint and equals the
// from-scratch hash of every pair through storage reuse.
func TestPairsDigestCoversLivePairsAllocatesNothing(t *testing.T) {
	s := sim.New()
	s.SetAudit(audit.New(64))
	err := s.Run(func() {
		n := New(s, LinkParams{Latency: time.Microsecond})
		eps := map[string]*Endpoint{}
		for _, name := range []string{"c", "a", "b"} {
			eps[name] = n.Endpoint(name)
		}
		defer n.Close()
		send := func(from, to string) {
			if err := eps[from].Send(to, "t", "payload", 8); err != nil {
				t.Errorf("Send: %v", err)
			}
			if _, err := eps[to].Recv(); err != nil {
				t.Errorf("Recv: %v", err)
			}
		}
		// want hashes the given pairs the way the digest must: the count,
		// then the sum of one hash a pair over from, to and the latest
		// deadline.
		want := func(pairs ...[2]string) uint64 {
			var sum uint64
			for _, k := range pairs {
				var h audit.Digest
				h.WriteString(k[0])
				h.WriteString(k[1])
				h.WriteInt(int64(n.pairs[pairID(eps[k[0]], eps[k[1]])].lastDue))
				sum += h.Sum()
			}
			d := new(audit.Digest)
			d.WriteInt(int64(len(pairs)))
			d.WriteUint(sum)
			return d.Sum()
		}
		sum := func() uint64 {
			d := new(audit.Digest)
			n.digestPairs(d)
			return d.Sum()
		}
		send("c", "a")
		send("a", "b")
		if got := sum(); got != want([2]string{"a", "b"}, [2]string{"c", "a"}) {
			t.Errorf("digest of two pairs = %x, not the count and hash sum", got)
		}
		before := sum()
		send("a", "b") // moves a deadline, adds no pair
		if sum() == before {
			t.Error("digest did not move with a pair's deadline")
		}
		d := new(audit.Digest)
		if allocs := testing.AllocsPerRun(100, func() { n.digestPairs(d) }); allocs != 0 {
			t.Errorf("digest round: %v allocs, want 0", allocs)
		}
		send("b", "a")
		send("c", "b")
		send("a", "a")
		if got := sum(); got != want([2]string{"a", "a"}, [2]string{"a", "b"}, [2]string{"b", "a"},
			[2]string{"c", "a"}, [2]string{"c", "b"}) {
			t.Errorf("digest after five pairs = %x, not the count and hash sum", got)
		}
		// Releasing b takes a->b, b->a and c->b with it.
		n.Release(eps["b"])
		if got := sum(); got != want([2]string{"a", "a"}, [2]string{"c", "a"}) {
			t.Errorf("digest after releasing b = %x, not the hash of the two pairs left", got)
		}
		// d takes over b's storage and the new pairs take over the released
		// pair states: each is hashed under its new names.
		eps["d"] = n.Endpoint("d")
		send("d", "a")
		send("a", "d")
		send("d", "d")
		all := [][2]string{{"a", "a"}, {"a", "d"}, {"c", "a"}, {"d", "a"}, {"d", "d"}}
		if got := sum(); got != want(all...) {
			t.Errorf("digest after reusing b's storage for d = %x, not the from-scratch hash", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestEveryFlightLands: a flight goes back to the fabric's free list at
// the end of its delivery event whatever becomes of its message, so at
// quiescence the list holds what it held before and a round of sends
// allocates nothing. The round drops a message to a host that fails
// mid-flight, lands one on an endpoint released while it flew, closes an
// endpoint with messages queued, and hands messages to a handler and to
// RecvMatch.
func TestEveryFlightLands(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		src, down, hnd, mt := n.Endpoint("src"), n.Endpoint("down@h1"), n.Endpoint("hnd"), n.Endpoint("mt")
		gone, closing := n.Endpoint("gone"), n.Endpoint("closing")
		handled := 0
		hnd.SetHandler(func(_ any, m *Message) { handled += m.Payload.(int) }, nil)
		const warm = 8
		for i := 0; i < warm; i++ {
			_ = src.Send("mt", "warm", i, 0)
		}
		for i := 0; i < warm; i++ {
			if _, err := mt.Recv(); err != nil {
				t.Fatalf("warm Recv: %v", err)
			}
		}
		if len(n.freeFlights) != warm {
			t.Fatalf("%d flights free after warming, want %d", len(n.freeFlights), warm)
		}
		round := func() {
			_ = src.Send(down.Name(), "x", 1, 0)
			n.SetHostDown("h1", true)
			_ = src.Send("gone", "x", 2, 0)
			n.Release(gone)
			_ = src.Send("closing", "x", 3, 0)
			_ = src.Send("closing", "x", 4, 0)
			_ = src.Send("hnd", "x", 5, 0)
			_ = src.Send("mt", "skip", 6, 0)
			_ = src.Send("mt", "want", 7, 0)
			if m, err := mt.RecvMatch(func(m *Message) bool { return m.Tag == "want" }); err != nil || m.Payload != 7 {
				t.Errorf("RecvMatch = %v, %v; want payload 7", m.Payload, err)
			}
			if m, err := mt.Recv(); err != nil || m.Payload != 6 {
				t.Errorf("Recv = %v, %v; want payload 6", m.Payload, err)
			}
			if p := closing.Pending(); p != 2 {
				t.Errorf("%d messages queued at closing, want 2", p)
			}
			closing.Close()
			for i, m := range closing.queue[:cap(closing.queue)] {
				if m != (Message{}) {
					t.Errorf("Close left queue slot %d holding %+v", i, m)
				}
			}
			n.Release(closing)
			n.SetHostDown("h1", false)
			gone, closing = n.Endpoint("gone"), n.Endpoint("closing")
		}
		round()
		if handled != 5 || down.Pending() != 0 || gone.Pending() != 0 {
			t.Errorf("handler took %d (want 5); %d queued at the failed host, %d at the reborn endpoint (want 0)",
				handled, down.Pending(), gone.Pending())
		}
		if len(n.freeFlights) != warm {
			t.Errorf("%d flights free after a round, want %d", len(n.freeFlights), warm)
		}
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Errorf("a round allocates %v objects, want 0", allocs)
		}
		if len(n.freeFlights) != warm {
			t.Errorf("%d flights free after 51 more rounds, want %d", len(n.freeFlights), warm)
		}
	})
}

// BenchmarkSendByName times a round of sends by name to 1,024
// destinations from one sender (senders=1) or from two in turn; the
// drain that follows each round is not timed. Run it on two trees to
// compare what a send by name costs:
//
//	go test -run '^$' -bench SendByName -benchtime 300x -count 3 ./internal/netsim
func BenchmarkSendByName(b *testing.B) {
	for _, senders := range []int{1, 2} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			s := sim.New()
			err := s.Run(func() {
				n := New(s, LinkParams{Latency: time.Microsecond})
				defer n.Close()
				src := []*Endpoint{n.Endpoint("pbs/server"), n.Endpoint("pbs_sched")}
				dst := make([]*Endpoint, 1024)
				for i := range dst {
					dst[i] = n.Endpoint(fmt.Sprintf("pbs/mom@cn%04d", i))
				}
				round := func() {
					for i, d := range dst {
						if err := src[i%senders].Send(d.Name(), "pbs", "p", 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					for _, d := range dst {
						if _, err := d.Recv(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				round()
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					round()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
