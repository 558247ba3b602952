package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

func run(t *testing.T, fn func(s *sim.Simulation, n *Network)) {
	t.Helper()
	runParams(t, LinkParams{Latency: time.Millisecond}, fn)
}

func runParams(t *testing.T, p LinkParams, fn func(s *sim.Simulation, n *Network)) {
	t.Helper()
	s := sim.New()
	n := New(s, p)
	err := s.Run(func() {
		defer n.Close()
		fn(s, n)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSendRecvLatency(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		if err := a.Send("b", "hello", 42, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Payload.(int) != 42 || m.From != "a" || m.Tag != "hello" {
			t.Fatalf("bad message: %+v", m)
		}
		if got := s.Now(); got != time.Millisecond {
			t.Fatalf("delivered at %v, want 1ms", got)
		}
	})
}

func TestBandwidthDelaysLargeMessages(t *testing.T) {
	p := LinkParams{Latency: time.Millisecond, BandwidthBps: 1e6} // 1 MB/s
	runParams(t, p, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		if err := a.Send("b", "bulk", nil, 1_000_000); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if got, want := s.Now(), time.Millisecond+time.Second; got != want {
			t.Fatalf("delivered at %v, want %v", got, want)
		}
	})
}

func TestPipeliningPaysLatencyOnce(t *testing.T) {
	p := LinkParams{Latency: 10 * time.Millisecond, BandwidthBps: 1e9, PipelineChunk: 1 << 20}
	// 4 MiB unpipelined: 4 chunks * 10ms latency + serialize.
	// Pipelined: 10ms + serialize.
	size := 4 << 20
	unp := p.TransferTime(size, false)
	pip := p.TransferTime(size, true)
	if unp <= pip {
		t.Fatalf("unpipelined %v should exceed pipelined %v", unp, pip)
	}
	if diff := unp - pip; diff != 30*time.Millisecond {
		t.Fatalf("latency saving = %v, want 30ms", diff)
	}
}

func TestTransferTimeSmallMessageUnaffectedByPipelining(t *testing.T) {
	p := LinkParams{Latency: time.Millisecond, BandwidthBps: 1e9, PipelineChunk: 1 << 20}
	if p.TransferTime(100, false) != p.TransferTime(100, true) {
		t.Fatal("small transfers should not pay chunking cost")
	}
}

func TestTransferTimeNegativeSize(t *testing.T) {
	p := LinkParams{Latency: time.Millisecond, BandwidthBps: 1e6}
	if got := p.TransferTime(-5, false); got != time.Millisecond {
		t.Fatalf("TransferTime(-5) = %v, want latency only", got)
	}
}

func TestInOrderDelivery(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		for i := 0; i < 10; i++ {
			if err := a.Send("b", "seq", i, 0); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		for i := 0; i < 10; i++ {
			m, err := b.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if m.Payload.(int) != i {
				t.Fatalf("out of order: got %v, want %d", m.Payload, i)
			}
		}
	})
}

// tagIs is the selective-receive predicate for one tag.
func tagIs(tag string) func(*Message) bool {
	return func(m *Message) bool { return m.Tag == tag }
}

func TestRecvTagSkipsOthers(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		a.Send("b", "x", 1, 0)
		a.Send("b", "y", 2, 0)
		m, err := b.RecvMatch(tagIs("y"))
		if err != nil {
			t.Fatalf("RecvMatch: %v", err)
		}
		if m.Payload.(int) != 2 {
			t.Fatalf("RecvMatch(tag y) = %v", m.Payload)
		}
		if b.Pending() != 1 {
			t.Fatalf("pending = %d, want 1", b.Pending())
		}
		m, err = b.RecvMatch(tagIs("x"))
		if err != nil || m.Payload.(int) != 1 {
			t.Fatalf("RecvMatch(tag x) = %v, %v", m, err)
		}
	})
}

func TestRecvTimeout(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		b := n.Endpoint("b")
		start := s.Now()
		_, err := b.RecvTimeout(50 * time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if got := s.Now() - start; got != 50*time.Millisecond {
			t.Fatalf("timed out after %v, want 50ms", got)
		}
	})
}

func TestRecvTimeoutDeliveredInTime(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		s.Go("sender", func() {
			s.Sleep(10 * time.Millisecond)
			a.Send("b", "late", "ok", 0)
		})
		m, err := b.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Payload.(string) != "ok" {
			t.Fatalf("payload = %v", m.Payload)
		}
	})
}

func TestRecvMatchTimeoutMismatchedTagStillTimesOut(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		a.Send("b", "other", 1, 0)
		_, err := b.RecvMatchTimeout(tagIs("wanted"), 20*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if b.Pending() != 1 {
			t.Fatalf("mismatched message should remain queued")
		}
	})
}

func TestUnknownPeer(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a := n.Endpoint("a")
		if err := a.Send("ghost", "t", nil, 0); !errors.Is(err, ErrUnknownPeer) {
			t.Fatalf("err = %v, want ErrUnknownPeer", err)
		}
	})
}

func TestCloseUnblocksReceiver(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		b := n.Endpoint("b")
		done := s.NewGate("done")
		var got error
		ok := false
		var mu sync.Mutex
		s.Go("receiver", func() {
			_, got = b.Recv()
			mu.Lock()
			ok = true
			mu.Unlock()
			done.Signal()
		})
		s.Sleep(time.Millisecond)
		b.Close()
		mu.Lock()
		for !ok {
			done.Wait(&mu)
		}
		mu.Unlock()
		if !errors.Is(got, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", got)
		}
	})
}

func TestSetDownDropsMessages(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		n.SetDown("b", true)
		if err := a.Send("b", "lost", 1, 10); err != nil {
			t.Fatalf("Send to down peer should not error, got %v", err)
		}
		_, err := b.RecvTimeout(20 * time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("expected drop + timeout, got %v", err)
		}
		n.SetDown("b", false)
		a.Send("b", "ok", 2, 0)
		if m, err := b.Recv(); err != nil || m.Payload.(int) != 2 {
			t.Fatalf("after reconnect: %v, %v", m, err)
		}
		if st := n.Stats(); st.Dropped != 1 {
			t.Fatalf("dropped = %d, want 1", st.Dropped)
		}
	})
}

func TestMidFlightPartitionDrops(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		a.Send("b", "inflight", 1, 0) // delivers at t=1ms
		n.SetDown("b", true)          // partition before delivery
		_, err := b.RecvTimeout(10 * time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("expected mid-flight drop, got %v", err)
		}
	})
}

func TestPerLinkOverride(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		n.SetLink("a", "b", LinkParams{Latency: 100 * time.Millisecond})
		start := s.Now()
		a.Send("b", "slow", nil, 0)
		if _, err := b.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if got := s.Now() - start; got != 100*time.Millisecond {
			t.Fatalf("latency = %v, want 100ms", got)
		}
		if p := n.LinkParams("a", "b"); p.Latency != 100*time.Millisecond {
			t.Fatalf("LinkParams = %+v", p)
		}
		if p := n.LinkParams("b", "a"); p.Latency != time.Millisecond {
			t.Fatalf("reverse link should use default, got %+v", p)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		a, b := n.Endpoint("a"), n.Endpoint("b")
		a.Send("b", "t", nil, 100)
		a.Send("b", "t", nil, 200)
		b.Recv()
		b.Recv()
		st := n.Stats()
		if st.MessagesSent != 2 || st.BytesSent != 300 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestEndpointIdempotentCreate(t *testing.T) {
	run(t, func(s *sim.Simulation, n *Network) {
		if n.Endpoint("x") != n.Endpoint("x") {
			t.Fatal("Endpoint should return the same instance per name")
		}
	})
}

func TestNetworkCloseAllEndpoints(t *testing.T) {
	s := sim.New()
	n := New(s, LinkParams{Latency: time.Millisecond})
	err := s.Run(func() {
		a := n.Endpoint("a")
		n.Close()
		n.Close() // idempotent
		if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after Close: %v", err)
		}
		if err := a.Send("a", "t", nil, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after Close: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
