package mpi

import (
	"sync"
	"testing"
	"time"
)

func TestAttachBindsCurrentActor(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		p := rt.Attach("cn0")
		if p.World().Size() != 1 || p.World().Rank() != 0 {
			t.Errorf("attached world: rank=%d size=%d", p.World().Rank(), p.World().Size())
		}
		if p.Host() != "cn0" {
			t.Errorf("host = %q", p.Host())
		}
		// The attached proc can spawn from the main actor directly.
		j := newJoin(s, 1)
		rt.Register("d", func(c *Proc, args []string) { j.done() })
		inter, err := p.Spawn("d", nil, []string{"ac0"})
		if err != nil {
			t.Errorf("Spawn: %v", err)
			return
		}
		if inter.RemoteSize() != 1 {
			t.Errorf("remote = %d", inter.RemoteSize())
		}
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSpawnCollectivePreservesRanks reproduces the paper's dynamic
// allocation layout: an existing intracomm [cn, d1, d2] collectively
// spawns 2 daemons; after merge the old members keep ranks 0..2 and
// the new daemons get 3..4.
func TestSpawnCollectivePreservesRanks(t *testing.T) {
	s, rt, n := testRuntime(t, Config{ProcStartup: 20 * time.Millisecond})
	err := s.Run(func() {
		defer n.Close()
		var mu sync.Mutex
		mergedRanks := map[int]int{} // proc id -> merged rank
		j := newJoin(s, 3+2)

		record := func(p *Proc, m *Comm) {
			mu.Lock()
			mergedRanks[p.ID()] = m.Rank()
			mu.Unlock()
		}

		rt.Register("dyn", func(p *Proc, args []string) {
			defer j.done()
			m, err := p.Parent().Merge(true)
			if err != nil {
				t.Errorf("child Merge: %v", err)
				return
			}
			record(p, m)
			if m.Size() != 5 {
				t.Errorf("merged size = %d", m.Size())
			}
			// The children's handles share one id list with each other
			// and with the parents' view; the merge left them as built.
			if w, pa := p.World(), p.Parent(); w.Size() != 2 || pa.Size() != 2 || pa.RemoteSize() != 3 {
				t.Errorf("child after merge: world %d, parent local=%d remote=%d; want 2, 2, 3",
					w.Size(), pa.Size(), pa.RemoteSize())
			}
		})

		var oldIDs []int
		procs := rt.LaunchWorld([]string{"cn0", "ac0", "ac1"}, "grp", func(p *Proc) {
			defer j.done()
			w := p.World()
			inter, err := w.SpawnCollective("dyn", nil, []string{"ac2", "ac3"})
			if err != nil {
				t.Errorf("SpawnCollective: %v", err)
				return
			}
			if inter.Size() != 3 || inter.RemoteSize() != 2 {
				t.Errorf("intercomm local=%d remote=%d", inter.Size(), inter.RemoteSize())
			}
			m, err := inter.Merge(false)
			if err != nil {
				t.Errorf("Merge: %v", err)
				return
			}
			record(p, m)
			if m.Rank() != w.Rank() {
				t.Errorf("rank changed across merge: world %d, merged %d", w.Rank(), m.Rank())
			}
			// Deriving a communicator builds a new group: the handles
			// that share the old ones read as before.
			sh, err := m.Shrink([]int{2, 1, 0}, 1)
			if err != nil {
				t.Errorf("Shrink: %v", err)
				return
			}
			if sh.Size() != 3 || sh.Rank() != 2-w.Rank() {
				t.Errorf("shrunk: rank %d of %d, want %d of 3", sh.Rank(), sh.Size(), 2-w.Rank())
			}
			if w.Size() != 3 || inter.Size() != 3 || inter.RemoteSize() != 2 || m.Size() != 5 || m.Rank() != w.Rank() {
				t.Errorf("after Shrink: world %d, intercomm local=%d remote=%d, merged rank %d of %d",
					w.Size(), inter.Size(), inter.RemoteSize(), m.Rank(), m.Size())
			}
		})
		for _, p := range procs {
			oldIDs = append(oldIDs, p.ID())
		}
		j.wait()
		mu.Lock()
		defer mu.Unlock()
		for i, id := range oldIDs {
			if mergedRanks[id] != i {
				t.Errorf("old member %d has merged rank %d, want %d", id, mergedRanks[id], i)
			}
		}
		newRanks := map[int]bool{}
		for id, r := range mergedRanks {
			isOld := false
			for _, o := range oldIDs {
				if o == id {
					isOld = true
				}
			}
			if !isOld {
				newRanks[r] = true
			}
		}
		if !newRanks[3] || !newRanks[4] {
			t.Errorf("new daemon ranks = %v, want {3,4}", newRanks)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSpawnCollectiveUnknownCommand(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 2)
		rt.LaunchWorld([]string{"h0", "h1"}, "grp", func(p *Proc) {
			defer j.done()
			if _, err := p.World().SpawnCollective("missing", nil, []string{"x"}); err == nil {
				t.Errorf("rank %d: expected failure", p.World().Rank())
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSpawnCollectiveOnIntercommFails(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 2)
		rt.Register("d", func(p *Proc, args []string) {
			defer j.done()
			if _, err := p.Parent().SpawnCollective("d", nil, []string{"x"}); err == nil {
				t.Error("SpawnCollective on intercomm should fail")
			}
		})
		rt.Launch("cn0", "app", func(p *Proc) {
			defer j.done()
			if _, err := p.Spawn("d", nil, []string{"ac0"}); err != nil {
				t.Errorf("Spawn: %v", err)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestShrinkRenumbersRanks(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		const np = 4
		j := newJoin(s, np)
		rt.LaunchWorld([]string{"h0", "h1", "h2", "h3"}, "w", func(p *Proc) {
			defer j.done()
			w := p.World()
			if w.Rank() == 3 {
				// Released member does not participate.
				return
			}
			nc, err := w.Shrink([]int{0, 1, 2}, 1)
			if err != nil {
				t.Errorf("Shrink: %v", err)
				return
			}
			if nc.Size() != 3 || nc.Rank() != w.Rank() {
				t.Errorf("shrunk: rank=%d size=%d", nc.Rank(), nc.Size())
			}
			// The shrunk comm is usable for communication.
			if nc.Rank() == 0 {
				for i := 1; i < 3; i++ {
					if err := nc.Send(i, 1, "hi", 0); err != nil {
						t.Errorf("Send: %v", err)
					}
				}
			} else {
				if st, err := nc.Recv(0, 1); err != nil || st.Payload.(string) != "hi" {
					t.Errorf("Recv: %v %v", st, err)
				}
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestShrinkReordersKeepList(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 1)
		rt.Launch("h0", "app", func(p *Proc) {
			defer j.done()
			w := p.World()
			if _, err := w.Shrink([]int{5}, 1); err == nil {
				t.Error("out-of-range keep should fail")
			}
			if _, err := w.Shrink([]int{}, 1); err == nil {
				t.Error("dropping the caller should fail")
			}
			nc, err := w.Shrink([]int{0}, 2)
			if err != nil || nc.Rank() != 0 || nc.Size() != 1 {
				t.Errorf("Shrink self: %v %v", nc, err)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
