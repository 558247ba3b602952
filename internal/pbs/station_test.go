package pbs

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// recorder is a daemon that serves each message in a millisecond by
// appending its payload.
type recorder struct{ served *[]any }

func (recorder) cost(*netsim.Message) time.Duration { return time.Millisecond }
func (r recorder) serve(m *netsim.Message) *record {
	*r.served = append(*r.served, m.Payload)
	return nil
}

// A station behind an endpoint handler serves the messages it was
// offered, in order, after the handler's delivery events are over: it
// queues copies, not the handler's pointers.
func TestStationServesWhatItWasOffered(t *testing.T) {
	s := sim.New()
	var served []any
	err := s.Run(func() {
		n := netsim.New(s, netsim.LinkParams{Latency: time.Millisecond})
		defer n.Close()
		src, dst := n.Endpoint("src"), n.Endpoint("dst")
		st := &station{sim: s, batch: 1, daemon: recorder{&served}}
		dst.SetHandler(func(_ any, m *netsim.Message) { st.offer(m) }, nil)
		for i := 0; i < 5; i++ {
			if err := src.Send("dst", "x", i, 0); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		s.Sleep(10 * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []any{0, 1, 2, 3, 4}; !slices.Equal(served, want) {
		t.Errorf("station served %v, want %v", served, want)
	}
}
