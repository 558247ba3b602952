package netsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// collect is a handler that appends each payload to *got.
func collect(got *[]int) func(any, *Message) {
	return func(_ any, m *Message) {
		*got = append(*got, m.Payload.(int))
	}
}

// A handler takes every message in its delivery event, so nothing queues
// for Recv; taken off the endpoint (as a stopping pbs_server does from
// inside its handler), it leaves what arrives later to Recv.
func TestHandlerTakesEveryMessageAtItsDelivery(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		var handled []int
		h := collect(&handled)
		var at []time.Duration
		b.SetHandler(func(_ any, m *Message) {
			at = append(at, s.Now())
			if m.Payload.(int) == 4 {
				b.SetHandler(nil, nil)
			}
			h(nil, m)
		}, nil)
		s.Go("sender", func() {
			for i := 0; i < 10; i++ {
				_ = a.Send("b", "x", i, 0)
				s.Sleep(time.Millisecond)
			}
		})
		var received []int
		for len(received) < 5 {
			m, err := b.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			received = append(received, m.Payload.(int))
		}
		if want := []int{0, 1, 2, 3, 4}; !slices.Equal(handled, want) {
			t.Errorf("handler took %v, want %v", handled, want)
		}
		if want := []int{5, 6, 7, 8, 9}; !slices.Equal(received, want) {
			t.Errorf("receiver got %v, want %v", received, want)
		}
		for i, d := range at {
			if want := time.Duration(i+1) * time.Millisecond; d != want {
				t.Errorf("message %d handled at %v, want its delivery at %v", i, d, want)
			}
		}
		if p := b.Pending(); p != 0 {
			t.Errorf("%d messages left queued", p)
		}
	})
}

// Installing a handler hands it what is already queued, in order, before
// SetHandler returns, and leaves the queue empty.
func TestSetHandlerHandsOverTheBacklogInOrder(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		for i := 0; i < 6; i++ {
			_ = a.Send("b", "x", i, 0)
		}
		s.Sleep(2 * time.Millisecond)
		if p := b.Pending(); p != 6 {
			t.Fatalf("%d messages queued before the handler, want 6", p)
		}
		var handled []int
		b.SetHandler(collect(&handled), nil)
		if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(handled, want) {
			t.Errorf("handover gave the handler %v, want %v", handled, want)
		}
		if p := b.Pending(); p != 0 {
			t.Errorf("%d messages left queued after the handover", p)
		}
		_ = a.Send("b", "x", 6, 0)
		s.Sleep(2 * time.Millisecond)
		if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(handled, want) {
			t.Errorf("after handover the handler took %v, want %v", handled, want)
		}
	})
}

// Close removes the handler with the queue, and Release hands the storage
// on without it: a message in flight to the old name is dropped unhandled
// and the new owner receives with Recv.
func TestCloseAndReleaseDropTheHandler(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b, c := n.Endpoint("a"), n.Endpoint("b"), n.Endpoint("c")
		var handled []int
		b.SetHandler(collect(&handled), nil)
		c.SetHandler(collect(&handled), nil)
		_ = a.Send("b", "x", 0, 0)
		_ = a.Send("c", "x", 2, 0)
		b.Close()
		n.Release(c)
		d := n.Endpoint("d")
		if d != c {
			t.Fatalf("released storage was not reused")
		}
		_ = a.Send("d", "x", 4, 0)
		m, err := d.RecvTimeout(10 * time.Millisecond)
		if err != nil {
			t.Fatalf("new owner's Recv: %v", err)
		}
		if m.Payload.(int) != 4 {
			t.Errorf("new owner received %v, want 4", m.Payload)
		}
		if len(handled) != 0 {
			t.Errorf("a closed or released endpoint's handler took %v", handled)
		}
		if st := n.Stats(); st.MessagesSent != 3 {
			t.Errorf("sent %d, want 3", st.MessagesSent)
		}
	})
}
