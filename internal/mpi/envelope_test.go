package mpi

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// soundFreeList fails t unless every envelope on the runtime's free list
// is there once and holds nothing: a twice-returned or a live envelope
// there would carry one message's fields into another.
func soundFreeList(t *testing.T, rt *Runtime) {
	t.Helper()
	seen := map[*envelope]bool{}
	for _, env := range rt.freeEnvelopes {
		if seen[env] {
			t.Errorf("envelope %p is on the free list twice", env)
			return
		}
		seen[env] = true
		if env.comm != "" || env.payload != nil || env.desc.group != nil {
			t.Errorf("free envelope %p still holds %+v", env, *env)
			return
		}
	}
}

// A received Status is a copy: the payload stays the sender's after the
// envelope that carried it serves later sends, and a ping-pong runs on
// the envelopes the first messages freed.
func TestStatusPayloadOutlivesItsEnvelope(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	carriers := map[any]bool{}
	n.Trace(func(m *netsim.Message) { carriers[m.Payload] = true })
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 2)
		var kept []Status
		rt.LaunchWorld([]string{"h0", "h1"}, "pingpong", func(p *Proc) {
			defer j.done()
			w := p.World()
			for i := 0; i < 100; i++ {
				if w.Rank() == 0 {
					if err := w.Send(1, 1, []int{i}, 0); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
					st, err := w.Recv(1, 2)
					if err != nil {
						t.Errorf("Recv: %v", err)
						return
					}
					kept = append(kept, st)
					continue
				}
				st, err := w.Recv(0, 1)
				if err != nil {
					t.Errorf("Recv: %v", err)
					return
				}
				if err := w.Send(0, 2, []int{st.Payload.([]int)[0] * 10}, 0); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		})
		j.wait()
		for i, st := range kept {
			if v := st.Payload.([]int); len(v) != 1 || v[0] != i*10 || st.Source != 1 || st.Tag != 2 {
				t.Errorf("reply %d reads %+v, want payload [%d] from rank 1 tag 2", i, st, i*10)
			}
		}
		soundFreeList(t, rt)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(carriers) > 2 {
		t.Errorf("200 messages in turn took %d envelopes, want at most 2", len(carriers))
	}
}

// spawnMergeCycle spawns two "worker" children from comm, merges them in
// at ranks size..size+1, checks that each answers a request with its
// rank and the request's payload, stops them and shrinks comm back once
// they have exited. It returns nil once it has reported a failure.
func spawnMergeCycle(t *testing.T, comm *Comm, round int) *Comm {
	t.Helper()
	size := comm.Size()
	live, _ := comm.rt.Live()
	inter, err := comm.SpawnCollective("worker", nil, []string{"ac0", "ac1"})
	if err != nil {
		t.Errorf("round %d: SpawnCollective: %v", round, err)
		return nil
	}
	m, err := inter.Merge(false)
	if err != nil {
		t.Errorf("round %d: Merge: %v", round, err)
		return nil
	}
	if m.Rank() != 0 || m.Size() != size+2 {
		t.Errorf("round %d: merged rank %d of %d, want 0 of %d", round, m.Rank(), m.Size(), size+2)
		return nil
	}
	for r := size; r < size+2; r++ {
		if err := m.Send(r, 1, round*100+r, 0); err != nil {
			t.Errorf("round %d: Send: %v", round, err)
			return nil
		}
		st, err := m.Recv(r, 2)
		if err != nil {
			t.Errorf("round %d: Recv: %v", round, err)
			return nil
		}
		if got := st.Payload.([2]int); got != [2]int{r, round*100 + r} {
			t.Errorf("round %d: rank %d answered %v, want [%d %d]", round, r, got, r, round*100+r)
		}
		if err := m.Send(r, 1, -1, 0); err != nil { // stop
			t.Errorf("round %d: Send: %v", round, err)
			return nil
		}
	}
	m.rt.sim.Sleep(10 * testLatency) // the children take their stop and exit
	if procs, _ := m.rt.Live(); procs != live {
		t.Errorf("round %d: %d live processes after the children's stop, want %d", round, procs, live)
		return nil
	}
	keep := make([]int, size)
	for i := range keep {
		keep[i] = i
	}
	next, err := m.Shrink(keep, round)
	if err != nil {
		t.Errorf("round %d: Shrink: %v", round, err)
		return nil
	}
	return next
}

// registerWorker registers the child spawnMergeCycle spawns: it merges
// in high and answers tag-1 requests with [rank, payload] until the
// payload is -1. Anything else sent to it stays queued when it exits.
func registerWorker(t *testing.T, rt *Runtime) {
	rt.Register("worker", func(p *Proc, args []string) {
		m, err := p.Parent().Merge(true)
		if err != nil {
			t.Errorf("child Merge: %v", err)
			return
		}
		for {
			st, err := m.Recv(0, 1)
			if err != nil {
				t.Errorf("child Recv: %v", err)
				return
			}
			v := st.Payload.(int)
			if v < 0 {
				return
			}
			if err := m.Send(0, 2, [2]int{m.Rank(), v}, 0); err != nil {
				t.Errorf("child Send: %v", err)
				return
			}
		}
	})
}

// A send the fabric drops — at the send, or in flight when the host
// goes down under it — never comes back to the free list; the
// spawn/merge traffic after it still gets its own envelopes' contents.
func TestDroppedSendLeavesSpawnMergeIntact(t *testing.T) {
	s, rt, n := testRuntime(t, Config{ProcStartup: time.Millisecond})
	registerWorker(t, rt)
	err := s.Run(func() {
		defer n.Close()
		cn := rt.Attach("cn0")
		defer cn.Detach()
		lost := rt.Attach("lost")
		defer lost.Detach()
		inter, err := cn.Connect(openAndAccept(t, s, lost), cn.World())
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		n.SetHostDown("lost", true)
		if err := inter.Send(0, 1, "dropped at the send", 0); err != nil {
			t.Errorf("Send to a down host: %v", err)
			return
		}
		n.SetHostDown("lost", false)
		if err := inter.Send(0, 1, "dropped in flight", 0); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		n.SetHostDown("lost", true)
		s.Sleep(10 * testLatency)
		if got := n.Stats().Dropped; got != 2 {
			t.Errorf("%d messages dropped, want 2", got)
			return
		}
		comm := cn.World()
		for round := 1; round <= 3; round++ {
			if comm = spawnMergeCycle(t, comm, round); comm == nil {
				return
			}
			soundFreeList(t, rt)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// openAndAccept has p accept one connection on a new port in an actor of
// its own and returns the port.
func openAndAccept(t *testing.T, s *sim.Simulation, p *Proc) string {
	port := p.OpenPort()
	s.Go("acceptor", func() {
		if _, err := p.Accept(port, p.World()); err != nil {
			t.Errorf("Accept: %v", err)
		}
	})
	return port
}

// Messages still queued at children when they exit are discarded with
// their endpoints, envelopes and all: the free list stays sound and the
// next Spawn/Merge/Shrink cycles get the right ranks and payloads.
func TestEnvelopesQueuedAtAnExitedProcLeaveTheFreeListSound(t *testing.T) {
	s, rt, n := testRuntime(t, Config{ProcStartup: time.Millisecond})
	registerWorker(t, rt)
	err := s.Run(func() {
		defer n.Close()
		cn := rt.Attach("cn0")
		defer cn.Detach()
		inter, err := cn.World().SpawnCollective("worker", nil, []string{"ac0", "ac1"})
		if err != nil {
			t.Errorf("SpawnCollective: %v", err)
			return
		}
		m, err := inter.Merge(false)
		if err != nil {
			t.Errorf("Merge: %v", err)
			return
		}
		for r := 1; r <= 2; r++ {
			for i := 0; i < 5; i++ { // never received
				if err := m.Send(r, 7, i, 0); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
			if err := m.Send(r, 1, -1, 0); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
		s.Sleep(10 * testLatency)
		if procs, _ := rt.Live(); procs != 1 {
			t.Errorf("%d live processes after the children exited, want 1", procs)
			return
		}
		soundFreeList(t, rt)
		comm, err := m.Shrink([]int{0}, 1)
		if err != nil {
			t.Errorf("Shrink: %v", err)
			return
		}
		for round := 2; round <= 4; round++ {
			if comm = spawnMergeCycle(t, comm, round); comm == nil {
				return
			}
			soundFreeList(t, rt)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
