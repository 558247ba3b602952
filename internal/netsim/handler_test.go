package netsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// evens is a handler that takes even payloads, appending them to *got,
// and declines odd ones.
func evens(got *[]int) func(*Message) bool {
	return func(m *Message) bool {
		v := m.Payload.(int)
		if v%2 != 0 {
			return false
		}
		*got = append(*got, v)
		m.Release()
		return true
	}
}

// A handler and a blocked RecvMatch share an endpoint the way a pbs_mom
// and its mother-superior actors do: what the handler declines queues,
// and reaches the receiver in the order it arrived.
func TestHandlerAndRecvMatchShareAnEndpoint(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		var handled []int
		h := evens(&handled)
		var at []time.Duration
		b.SetHandler(func(m *Message) bool {
			at = append(at, s.Now())
			return h(m)
		})
		s.Go("sender", func() {
			for i := 0; i < 10; i++ {
				_ = a.Send("b", "x", i, 0)
				s.Sleep(time.Millisecond)
			}
		})
		var received []int
		for len(received) < 5 {
			m, err := b.RecvMatch(func(m *Message) bool { return m.Payload.(int)%2 != 0 })
			if err != nil {
				t.Fatalf("RecvMatch: %v", err)
			}
			received = append(received, m.Payload.(int))
			m.Release()
		}
		if want := []int{1, 3, 5, 7, 9}; !slices.Equal(received, want) {
			t.Errorf("receiver got %v, want %v", received, want)
		}
		if want := []int{0, 2, 4, 6, 8}; !slices.Equal(handled, want) {
			t.Errorf("handler took %v, want %v", handled, want)
		}
		for i, d := range at {
			if want := time.Duration(i+1) * time.Millisecond; d != want {
				t.Errorf("message %d offered at %v, want its delivery at %v", i, d, want)
			}
		}
		if p := b.Pending(); p != 0 {
			t.Errorf("%d messages left queued", p)
		}
	})
}

// Installing a handler offers it what is already queued, in order, before
// SetHandler returns; the declined messages stay queued in their order.
func TestSetHandlerHandsOverTheBacklogInOrder(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		for i := 0; i < 6; i++ {
			_ = a.Send("b", "x", i, 0)
		}
		s.Sleep(2 * time.Millisecond)
		var handled []int
		b.SetHandler(evens(&handled))
		if want := []int{0, 2, 4}; !slices.Equal(handled, want) {
			t.Errorf("handover gave the handler %v, want %v", handled, want)
		}
		var left []int
		for b.Pending() > 0 {
			m, _ := b.Recv()
			left = append(left, m.Payload.(int))
			m.Release()
		}
		if want := []int{1, 3, 5}; !slices.Equal(left, want) {
			t.Errorf("left queued %v, want %v", left, want)
		}
		_ = a.Send("b", "x", 6, 0)
		s.Sleep(2 * time.Millisecond)
		if want := []int{0, 2, 4, 6}; !slices.Equal(handled, want) {
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
		b.SetHandler(evens(&handled))
		c.SetHandler(evens(&handled))
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
		m.Release()
		if len(handled) != 0 {
			t.Errorf("a closed or released endpoint's handler took %v", handled)
		}
		if st := n.Stats(); st.MessagesSent != 3 {
			t.Errorf("sent %d, want 3", st.MessagesSent)
		}
	})
}
