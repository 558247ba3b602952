package mpi

import (
	"sync"
	"testing"
)

func TestSplitPartitionsByColor(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		const np = 6
		j := newJoin(s, np)
		var mu sync.Mutex
		results := map[int]struct{ rank, size int }{}
		hosts := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
		rt.LaunchWorld(hosts, "w", func(p *Proc) {
			defer j.done()
			w := p.World()
			// Even ranks color 0, odd ranks color 1.
			sub, err := w.Split(w.Rank()%2, w.Rank())
			if err != nil {
				t.Errorf("Split: %v", err)
				return
			}
			mu.Lock()
			results[w.Rank()] = struct{ rank, size int }{sub.Rank(), sub.Size()}
			mu.Unlock()
			// The subcommunicator carries traffic.
			if sub.Rank() == 0 {
				for i := 1; i < sub.Size(); i++ {
					if err := sub.Send(i, 1, "hi", 0); err != nil {
						t.Errorf("Send: %v", err)
					}
				}
			} else {
				if st, err := sub.Recv(0, 1); err != nil || st.Payload.(string) != "hi" {
					t.Errorf("Recv: %v %v", st, err)
				}
			}
		})
		j.wait()
		mu.Lock()
		defer mu.Unlock()
		for rank, r := range results {
			if r.size != 3 {
				t.Errorf("rank %d sub size = %d", rank, r.size)
			}
			if want := rank / 2; r.rank != want {
				t.Errorf("rank %d sub rank = %d, want %d", rank, r.rank, want)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Which colour gets which context id is the same every run: rank 0
// hands the ids out walking the colours in ascending order.
func TestSplitContextIDsAreTheSameEveryRun(t *testing.T) {
	split := func() [3]string {
		var ids [3]string
		s, rt, n := testRuntime(t, Config{})
		err := s.Run(func() {
			defer n.Close()
			const np = 6
			j := newJoin(s, np)
			var mu sync.Mutex
			rt.LaunchWorld([]string{"h0", "h1", "h2", "h3", "h4", "h5"}, "w", func(p *Proc) {
				defer j.done()
				w := p.World()
				sub, err := w.Split(w.Rank()%3, w.Rank())
				if err != nil {
					t.Errorf("Split: %v", err)
					return
				}
				mu.Lock()
				ids[w.Rank()%3] = sub.ID()
				mu.Unlock()
			})
			j.wait()
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return ids
	}
	want := split()
	for run := 1; run < 20; run++ {
		if got := split(); got != want {
			t.Fatalf("run %d: colour context ids %v, first run %v", run, got, want)
		}
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		const np = 3
		j := newJoin(s, np)
		var mu sync.Mutex
		subRanks := map[int]int{}
		rt.LaunchWorld([]string{"h0", "h1", "h2"}, "w", func(p *Proc) {
			defer j.done()
			w := p.World()
			// Reverse order via descending keys.
			sub, err := w.Split(0, np-w.Rank())
			if err != nil {
				t.Errorf("Split: %v", err)
				return
			}
			mu.Lock()
			subRanks[w.Rank()] = sub.Rank()
			mu.Unlock()
		})
		j.wait()
		mu.Lock()
		defer mu.Unlock()
		for oldRank, newRank := range subRanks {
			if want := np - 1 - oldRank; newRank != want {
				t.Errorf("old rank %d -> %d, want %d", oldRank, newRank, want)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 2)
		rt.LaunchWorld([]string{"h0", "h1"}, "w", func(p *Proc) {
			defer j.done()
			w := p.World()
			color := 0
			if w.Rank() == 1 {
				color = -1 // MPI_UNDEFINED
			}
			sub, err := w.Split(color, 0)
			if err != nil {
				t.Errorf("Split: %v", err)
				return
			}
			if w.Rank() == 1 && sub != nil {
				t.Error("undefined color should yield nil comm")
			}
			if w.Rank() == 0 && (sub == nil || sub.Size() != 1) {
				t.Errorf("rank 0 sub = %v", sub)
			}
		})
		j.wait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSplitOnIntercommFails(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	err := s.Run(func() {
		defer n.Close()
		j := newJoin(s, 2)
		rt.Register("d", func(p *Proc, args []string) {
			defer j.done()
			if _, err := p.Parent().Split(0, 0); err == nil {
				t.Error("Split on intercomm should fail")
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
