package pbs_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/maui"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// ftTestbed is a testbed with heartbeats and the failure detector
// enabled.
func ftTestbed(t *testing.T, nCN, nAC int) *testbed {
	t.Helper()
	return ftTestbedOn(t, sim.New(), nCN, nAC)
}

// ftTestbedOn builds the testbed on a caller-provided simulation (see
// newTestbedOn).
func ftTestbedOn(t *testing.T, s *sim.Simulation, nCN, nAC int) *testbed {
	t.Helper()
	return ftTestbedSharded(t, s, nCN, nAC, 0)
}

// ftTestbedSharded is ftTestbedOn with a choice of server mode: shards
// above 1 select the sharded server and a scheduler at Partitions 2.
func ftTestbedSharded(t *testing.T, s *sim.Simulation, nCN, nAC, shards int) *testbed {
	t.Helper()
	net := netsim.New(s, netsim.LinkParams{Latency: 200 * time.Microsecond})
	tb := &testbed{s: s, net: net, moms: make(map[string]*pbs.Mom)}
	s.SetDeadline(horizon)
	tb.server = pbs.NewServer(net, pbs.ServerParams{
		Processing: time.Millisecond,
		DeadAfter:  200 * time.Millisecond,
		Shards:     shards,
	})
	mp := maui.DefaultParams()
	mp.CycleInterval = 50 * time.Millisecond
	mp.CycleOverhead = 5 * time.Millisecond
	mp.PerJobCost = 2 * time.Millisecond
	mp.DynPerReqCost = 2 * time.Millisecond
	if shards > 1 {
		mp.Partitions = 2
	}
	tb.sched = maui.New(net, pbs.ServerEndpoint, mp)
	tb.server.SetScheduler(tb.sched.Endpoint())
	momParams := pbs.MomParams{
		JoinCost:       time.Millisecond,
		DynJoinCost:    2 * time.Millisecond,
		StartCost:      time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
	}
	for i := 0; i < nCN; i++ {
		name := cnName(i)
		tb.cns = append(tb.cns, name)
		tb.server.AddNode(name, pbs.ComputeNode, 8)
		m := pbs.NewMom(net, name, momParams)
		m.Cluster = net
		tb.moms[name] = m
	}
	for i := 0; i < nAC; i++ {
		name := acName(i)
		tb.acs = append(tb.acs, name)
		tb.server.AddNode(name, pbs.AcceleratorNode, 1)
		m := pbs.NewMom(net, name, momParams)
		m.Cluster = net
		tb.moms[name] = m
	}
	return tb
}

func TestHeartbeatsKeepNodesUp(t *testing.T) {
	tb := ftTestbed(t, 1, 2)
	tb.run(t, func(c *pbs.Client) {
		tb.s.Sleep(time.Second) // many detection windows
		nodes, err := c.Nodes()
		if err != nil {
			t.Fatalf("Nodes: %v", err)
		}
		for _, n := range nodes {
			if n.Down {
				t.Errorf("node %s wrongly marked down", n.Name)
			}
		}
	})
}

func TestSilentNodeMarkedDownAndExcluded(t *testing.T) {
	tb := ftTestbed(t, 1, 2)
	tb.run(t, func(c *pbs.Client) {
		tb.net.SetHostDown("ac1", true) // heartbeats from ac1 vanish
		tb.s.Sleep(600 * time.Millisecond)
		nodes, _ := c.Nodes()
		downs := map[string]bool{}
		for _, n := range nodes {
			downs[n.Name] = n.Down
		}
		if !downs["ac1"] {
			t.Fatalf("ac1 not marked down: %v", downs)
		}
		if downs["ac0"] || downs["cn0"] {
			t.Fatalf("healthy nodes marked down: %v", downs)
		}
		// A dynamic request for 2 accelerators must now be rejected:
		// only ac0 is alive.
		var dynErr error
		id, _ := c.Submit(pbs.JobSpec{
			Name: "j", Owner: "u", Nodes: 1, PPN: 1, ACPN: 0, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				_, dynErr = cl.DynGet(env.JobID, env.Host, 2)
			},
		})
		c.Wait(id)
		if dynErr == nil {
			t.Error("DynGet(2) should be rejected with one accelerator down")
		}
	})
}

func TestDownNodeRecoversOnHeartbeat(t *testing.T) {
	tb := ftTestbed(t, 1, 1)
	tb.run(t, func(c *pbs.Client) {
		tb.net.SetHostDown("ac0", true)
		tb.s.Sleep(600 * time.Millisecond)
		nodes, _ := c.Nodes()
		if !nodes[1].Down {
			t.Fatalf("ac0 should be down: %+v", nodes)
		}
		tb.net.SetHostDown("ac0", false)
		tb.s.Sleep(300 * time.Millisecond)
		nodes, _ = c.Nodes()
		if nodes[1].Down {
			t.Fatalf("ac0 should have recovered: %+v", nodes)
		}
		// And it is allocatable again.
		var got int
		id, _ := c.Submit(pbs.JobSpec{
			Name: "j", Owner: "u", Nodes: 1, PPN: 1, ACPN: 0, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				if g, err := cl.DynGet(env.JobID, env.Host, 1); err == nil {
					got = len(g.Hosts)
				}
			},
		})
		c.Wait(id)
		if got != 1 {
			t.Errorf("recovered accelerator not allocatable (got %d)", got)
		}
	})
}

func TestComputeNodeFailureFailsJob(t *testing.T) {
	tb := ftTestbed(t, 2, 1)
	tb.run(t, func(c *pbs.Client) {
		started := tb.s.NewGate("started")
		var mu sync.Mutex
		running := false
		id, _ := c.Submit(pbs.JobSpec{
			Name: "victim", Owner: "u", Nodes: 1, PPN: 8, ACPN: 1, Walltime: time.Minute,
			Script: func(env *pbs.JobEnv) {
				mu.Lock()
				running = true
				mu.Unlock()
				started.Broadcast()
				tb.s.Sleep(time.Hour) // would run forever
			},
		})
		mu.Lock()
		for !running {
			started.Wait(&mu)
		}
		mu.Unlock()
		info, _ := c.Stat(id)
		cn := info.Hosts[0]
		tb.net.SetHostDown(cn, true)
		final, err := c.Wait(id)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if final.State != pbs.JobFailed {
			t.Fatalf("state = %v, want JobFailed", final.State)
		}
		// All resources released, including the accelerator.
		nodes, _ := c.Nodes()
		for _, n := range nodes {
			if n.Name != cn && len(n.Jobs) != 0 {
				t.Errorf("node %s still holds %v", n.Name, n.Jobs)
			}
		}
	})
}

func TestAcceleratorFailureDropsFromRunningJob(t *testing.T) {
	tb := ftTestbed(t, 1, 2)
	tb.run(t, func(c *pbs.Client) {
		started := tb.s.NewGate("started")
		var mu sync.Mutex
		running := false
		id, _ := c.Submit(pbs.JobSpec{
			Name: "j", Owner: "u", Nodes: 1, PPN: 1, ACPN: 2, Walltime: time.Minute,
			Script: func(env *pbs.JobEnv) {
				mu.Lock()
				running = true
				mu.Unlock()
				started.Broadcast()
				tb.s.Sleep(time.Second)
			},
		})
		mu.Lock()
		for !running {
			started.Wait(&mu)
		}
		mu.Unlock()
		tb.net.SetHostDown("ac0", true)
		tb.s.Sleep(600 * time.Millisecond)
		info, _ := c.Stat(id)
		if info.State != pbs.JobRunning {
			t.Fatalf("job should survive accelerator loss, state = %v", info.State)
		}
		if got := info.AccHosts[0]; len(got) != 1 || got[0] != "ac1" {
			t.Fatalf("AccHosts after failure = %v, want [ac1]", got)
		}
		final, _ := c.Wait(id)
		if final.State != pbs.JobCompleted {
			t.Fatalf("final state = %v", final.State)
		}
	})
}

func TestNodeDownForTestHook(t *testing.T) {
	tb := newTestbed(t, 1, 1, nil)
	tb.run(t, func(c *pbs.Client) {
		tb.server.NodeDownForTest("ac0")
		nodes, _ := c.Nodes()
		if !nodes[1].Down {
			t.Fatalf("hook did not mark node down: %+v", nodes)
		}
		if nodes[1].Free() {
			t.Fatal("down node reports free")
		}
		tb.server.NodeDownForTest("ac0") // idempotent
		tb.server.NodeDownForTest("ghost")
	})
}

func TestJobFailedStateString(t *testing.T) {
	if pbs.JobFailed.String() != "F" {
		t.Fatalf("JobFailed = %q", pbs.JobFailed.String())
	}
}

// Two nodes dying in one detector sweep, one of them a compute node
// running two jobs: the order of the repairs — failJob per job,
// dropAccelerator, their sends, accounting records and audit events —
// is part of the run's recording and must not follow Go's map order.
func TestSimultaneousFailuresRepairInOneOrder(t *testing.T) {
	record := func() string {
		rec := audit.New(1 << 16)
		s := sim.New()
		s.SetAudit(rec)
		tb := ftTestbedOn(t, s, 2, 2)
		err := tb.s.Run(func() {
			defer tb.net.Close()
			tb.server.Start()
			// Moms in a fixed order: heartbeats of one instant reach
			// the server in spawn order.
			for _, name := range append(append([]string(nil), tb.cns...), tb.acs...) {
				tb.moms[name].Start()
			}
			tb.sched.Start()
			c := pbs.NewClient(tb.net, "front", pbs.ServerEndpoint)
			started := tb.s.NewGate("started")
			var mu sync.Mutex
			running := 0
			var ids []string
			for i := 0; i < 2; i++ {
				id, err := c.Submit(pbs.JobSpec{
					Name: "victim", Owner: "u", Nodes: 1, PPN: 4, ACPN: 1, Walltime: time.Minute,
					Script: func(env *pbs.JobEnv) {
						mu.Lock()
						running++
						mu.Unlock()
						started.Broadcast()
						tb.s.Sleep(time.Hour)
					},
				})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids = append(ids, id)
			}
			mu.Lock()
			for running < 2 {
				started.Wait(&mu)
			}
			mu.Unlock()
			for _, id := range ids {
				if info, _ := c.Stat(id); len(info.Hosts) != 1 || info.Hosts[0] != "cn0" {
					t.Errorf("job %s on %v, want both on cn0", id, info.Hosts)
				}
			}
			// Silence both inside one heartbeat period, so one sweep
			// finds them dead together.
			tb.net.SetHostDown("cn0", true)
			tb.net.SetHostDown("ac1", true)
			for _, id := range ids {
				if final, err := c.Wait(id); err != nil || final.State != pbs.JobFailed {
					t.Errorf("job %s: state %v err %v, want JobFailed", id, final.State, err)
				}
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var b strings.Builder
		for _, r := range tb.server.AccountingLog() {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		for _, e := range rec.Events() {
			b.WriteString(audit.FormatEvent(e))
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := record()
	if strings.Count(want, "->failed") != 2 {
		t.Fatalf("recording does not show two failed jobs:\n%s", want)
	}
	for run := 1; run < 20; run++ {
		if got := record(); got != want {
			t.Fatalf("run %d recorded a different order of repairs", run)
		}
	}
}
