package netsim

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
)

// TestMessageHopZeroAlloc pins the steady-state send → deliver → recv
// → release hop at zero allocations per operation: the message
// envelope comes from the arena, delivery is scheduled through the
// kernel's closure-free AfterArg path, and the endpoint queue and gate
// waiter storage are reused across hops. The payload is a constant, so
// its interface conversion uses static storage.
func TestMessageHopZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool reuse is disabled under -race; allocs/op is meaningless")
	}
	s := sim.New()
	var allocs float64
	err := s.Run(func() {
		n := New(s, LinkParams{Latency: time.Microsecond})
		a := n.Endpoint("a")
		b := n.Endpoint("b")
		defer a.Close()
		defer b.Close()
		hop := func() {
			if err := a.Send("b", "ping", "payload", 64); err != nil {
				t.Errorf("Send: %v", err)
			}
			m, err := b.Recv()
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			m.Release()
		}
		for i := 0; i < 16; i++ { // warm the arena, queues, and pools
			hop()
		}
		allocs = testing.AllocsPerRun(200, hop)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("message hop steady state: %v allocs/op, want 0", allocs)
	}
}

// TestPairsDigestCoversLivePairsAllocatesNothing: the netsim.pairs
// digest is the count of live pairs and the sum of their hashes, so it
// reads the same whatever order the pairs first carried traffic in (or
// the maps are walked in), allocates nothing, takes in a pair that
// appears later, forgets the pairs of a released endpoint and equals the
// from-scratch hash of every pair through storage reuse and SetLink.
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
			m, err := eps[to].Recv()
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			m.Release()
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
				h.WriteInt(int64(n.pairs[pairKey{eps[k[0]], k[1]}].lastDue))
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
		if !raceDetectorOn {
			d := new(audit.Digest)
			if allocs := testing.AllocsPerRun(100, func() { n.digestPairs(d) }); allocs != 0 {
				t.Errorf("digest round: %v allocs, want 0", allocs)
			}
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
		// A link override moves a deadline and nothing else.
		n.SetLink("a", "d", LinkParams{Latency: time.Millisecond})
		send("a", "d")
		if got := sum(); got != want(all...) {
			t.Errorf("digest after SetLink = %x, not the from-scratch hash", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
