package mpi

import (
	"errors"
	"testing"
	"time"
)

// A process exits when its body returns: the runtime forgets it and the
// fabric takes its endpoint back, so the next spawn reuses the storage
// and the table of processes tracks what is running, not what has run.
func TestSpawnedProcsExitWithTheirBody(t *testing.T) {
	s, rt, n := testRuntime(t, Config{ProcStartup: time.Millisecond})
	rt.Register("worker", func(p *Proc, args []string) {
		p.Parent().Recv(0, 1) // until the parent says stop
	})
	err := s.Run(func() {
		defer n.Close()
		parent := rt.Attach("cn0")
		for round := 0; round < 50; round++ {
			inter, err := parent.Spawn("worker", nil, []string{"ac0", "ac1"})
			if err != nil {
				t.Errorf("Spawn: %v", err)
				return
			}
			if procs, _ := rt.Live(); procs != 3 {
				t.Errorf("round %d: %d live processes with two children up, want 3", round, procs)
				return
			}
			for r := 0; r < 2; r++ {
				if err := inter.Send(r, 1, nil, 0); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
			s.Sleep(10 * time.Millisecond)
			if procs, _ := rt.Live(); procs != 1 {
				t.Errorf("round %d: %d live processes after the children returned, want 1", round, procs)
				return
			}
			if c := n.Census(); c.Endpoints != 1 || c.Pairs != 0 || c.Dangling != 0 {
				t.Errorf("round %d: fabric holds %+v after the children returned", round, c)
				return
			}
			// A handle to the gone children fails; it does not reach the
			// process that holds their endpoints next.
			if err := inter.Send(0, 1, nil, 0); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("round %d: Send to an exited child: %v, want ErrInvalidRank", round, err)
				return
			}
		}
		parent.Detach()
		parent.Detach() // a no-op
		if procs, _ := rt.Live(); procs != 0 {
			t.Errorf("%d live processes after Detach, want 0", procs)
			return
		}
	})
	if err != nil {
		t.Errorf("Run: %v", err)
		return
	}
}

// Every operation of a process that has exited — through the handles
// Launch, LaunchWorld and Attach gave a caller, or a communicator it
// built — fails with ErrInvalidRank, even once another process has taken
// over its endpoint's storage.
func TestOperationsOfAnExitedProcFail(t *testing.T) {
	s, rt, n := testRuntime(t, Config{})
	rt.Register("worker", func(p *Proc, args []string) {})
	err := s.Run(func() {
		defer n.Close()
		launched := rt.Launch("cn0", "app", func(p *Proc) {})
		world := rt.LaunchWorld([]string{"cn1", "cn2"}, "pair", func(p *Proc) {})
		attached := rt.Attach("cn3")
		comm := attached.World()
		port := attached.OpenPort()
		s.Sleep(time.Millisecond) // the launched bodies return
		attached.Detach()
		next := rt.Attach("cn4") // takes over released storage
		defer next.Detach()

		for name, p := range map[string]*Proc{"launched": launched, "world[1]": world[1], "attached": attached} {
			if _, err := p.Spawn("worker", nil, []string{"ac0"}); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("%s.Spawn after exit: %v, want ErrInvalidRank", name, err)
			}
			if _, err := p.Connect(port, p.World()); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("%s.Connect after exit: %v, want ErrInvalidRank", name, err)
			}
			if _, err := p.Accept(port, p.World()); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("%s.Accept after exit: %v, want ErrInvalidRank", name, err)
			}
			if err := p.World().Send(0, 1, nil, 0); !errors.Is(err, ErrInvalidRank) {
				t.Errorf("%s.World().Send after exit: %v, want ErrInvalidRank", name, err)
			}
		}
		if _, err := comm.RecvTimeout(AnySource, AnyTag, time.Millisecond); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("Recv on an exited process's communicator: %v, want ErrInvalidRank", err)
		}
		if _, err := comm.Shrink([]int{0}, 1); err != nil {
			t.Errorf("Shrink is local and exchanges nothing: %v", err)
		}
		if procs, _ := rt.Live(); procs != 1 {
			t.Errorf("%d live processes, want 1", procs)
		}
	})
	if err != nil {
		t.Errorf("Run: %v", err)
		return
	}
}
