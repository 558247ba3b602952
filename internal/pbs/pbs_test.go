package pbs_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/maui"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// testbed wires a server, moms for nCN compute nodes and nAC
// accelerator nodes, and a Maui scheduler, mirroring the paper's
// 8-node configuration when nCN+nAC = 7.
type testbed struct {
	s      *sim.Simulation
	net    *netsim.Network
	server *pbs.Server
	sched  *maui.Scheduler
	moms   map[string]*pbs.Mom
	cns    []string
	acs    []string
}

func newTestbed(t *testing.T, nCN, nAC int, adjust func(*maui.Params)) *testbed {
	t.Helper()
	return newTestbedOn(t, sim.New(), nCN, nAC, adjust)
}

// newTestbedOn builds the testbed on a caller-provided simulation, so
// tests can install instrumentation (tracer, telemetry, audit
// recorder) before any daemon resolves its handles.
func newTestbedOn(t *testing.T, s *sim.Simulation, nCN, nAC int, adjust func(*maui.Params)) *testbed {
	t.Helper()
	return newTestbedWith(t, s, nCN, nAC, pbs.ServerParams{Processing: time.Millisecond}, adjust)
}

// newTestbedWith is newTestbedOn with a choice of server parameters.
func newTestbedWith(t *testing.T, s *sim.Simulation, nCN, nAC int, sp pbs.ServerParams, adjust func(*maui.Params)) *testbed {
	t.Helper()
	net := netsim.New(s, netsim.LinkParams{Latency: 200 * time.Microsecond})
	tb := &testbed{s: s, net: net, moms: make(map[string]*pbs.Mom)}
	tb.server = pbs.NewServer(net, sp)
	mp := maui.DefaultParams()
	mp.CycleInterval = 50 * time.Millisecond
	mp.CycleOverhead = 5 * time.Millisecond
	mp.PerJobCost = 2 * time.Millisecond
	mp.DynPerReqCost = 2 * time.Millisecond
	if adjust != nil {
		adjust(&mp)
	}
	tb.sched = maui.New(net, pbs.ServerEndpoint, mp)
	tb.server.SetScheduler(tb.sched.Endpoint())
	for i := 0; i < nCN; i++ {
		name := cnName(i)
		tb.cns = append(tb.cns, name)
		tb.server.AddNode(name, pbs.ComputeNode, 8)
		m := pbs.NewMom(net, name, pbs.MomParams{JoinCost: time.Millisecond, DynJoinCost: 2 * time.Millisecond, StartCost: time.Millisecond})
		m.Cluster = net
		tb.moms[name] = m
	}
	for i := 0; i < nAC; i++ {
		name := acName(i)
		tb.acs = append(tb.acs, name)
		tb.server.AddNode(name, pbs.AcceleratorNode, 1)
		m := pbs.NewMom(net, name, pbs.MomParams{JoinCost: time.Millisecond, DynJoinCost: 2 * time.Millisecond})
		m.Cluster = net
		tb.moms[name] = m
	}
	return tb
}

func cnName(i int) string { return "cn" + string(rune('0'+i)) }
func acName(i int) string { return "ac" + string(rune('0'+i)) }

func (tb *testbed) run(t *testing.T, fn func(c *pbs.Client)) {
	t.Helper()
	err := tb.s.Run(func() {
		defer tb.net.Close()
		tb.server.Start()
		for _, m := range tb.moms {
			m.Start()
		}
		tb.sched.Start()
		c := pbs.NewClient(tb.net, "front", pbs.ServerEndpoint)
		fn(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, e := range tb.server.Errors() {
		t.Errorf("server error: %s", e)
	}
}

func TestSubmitRunsAndCompletes(t *testing.T) {
	tb := newTestbed(t, 2, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		var ranHost string
		var mu sync.Mutex
		id, err := c.Submit(pbs.JobSpec{
			Name: "hello", Owner: "alice", Nodes: 1, PPN: 2, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				mu.Lock()
				ranHost = env.Host
				mu.Unlock()
				tb.s.Sleep(100 * time.Millisecond)
			},
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err := c.Wait(id)
		if err != nil {
			t.Errorf("Wait: %v", err)
			return
		}
		if info.State != pbs.JobCompleted {
			t.Errorf("state = %v", info.State)
		}
		mu.Lock()
		if ranHost == "" {
			t.Error("script never ran")
		}
		mu.Unlock()
		if !(info.SubmittedAt <= info.AllocatedAt && info.AllocatedAt <= info.StartedAt && info.StartedAt < info.CompletedAt) {
			t.Errorf("timestamps out of order: %+v", info)
		}
		if info.CompletedAt-info.StartedAt < 100*time.Millisecond {
			t.Errorf("job ran for %v, want >= 100ms", info.CompletedAt-info.StartedAt)
		}
		nodes, _ := c.Nodes()
		for _, n := range nodes {
			if len(n.Jobs) != 0 {
				t.Errorf("node %s still holds %v after completion", n.Name, n.Jobs)
			}
		}
	})
}

func TestStaticAcceleratorAllocation(t *testing.T) {
	tb := newTestbed(t, 1, 3, nil)
	tb.run(t, func(c *pbs.Client) {
		var gotACs []string
		var mu sync.Mutex
		id, err := c.Submit(pbs.JobSpec{
			Name: "dac", Owner: "alice", Nodes: 1, PPN: 1, ACPN: 3, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				mu.Lock()
				gotACs = append([]string(nil), env.AccHosts...)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err := c.Wait(id)
		if err != nil {
			t.Errorf("Wait: %v", err)
			return
		}
		mu.Lock()
		if len(gotACs) != 3 {
			t.Errorf("script saw %d accelerators, want 3", len(gotACs))
		}
		mu.Unlock()
		if len(info.AccHosts[0]) != 3 {
			t.Errorf("AccHosts = %v", info.AccHosts)
		}
		nodes, _ := c.Nodes()
		for _, n := range nodes {
			if len(n.Jobs) != 0 {
				t.Errorf("node %s not freed: %v", n.Name, n.Jobs)
			}
		}
	})
}

func TestJobQueuesUntilResourcesFree(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		long := func(env *pbs.JobEnv) { tb.s.Sleep(200 * time.Millisecond) }
		id1, err := c.Submit(pbs.JobSpec{Name: "a", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Second, Script: long})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		id2, err := c.Submit(pbs.JobSpec{Name: "b", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Second, Script: long})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		i1, _ := c.Wait(id1)
		i2, _ := c.Wait(id2)
		if i2.StartedAt < i1.CompletedAt {
			t.Errorf("job b started (%v) before a completed (%v)", i2.StartedAt, i1.CompletedAt)
		}
	})
}

func TestCoreLevelSharing(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		// Two ppn=4 jobs share the single 8-core node concurrently.
		script := func(env *pbs.JobEnv) { tb.s.Sleep(100 * time.Millisecond) }
		id1, _ := c.Submit(pbs.JobSpec{Name: "a", Owner: "u", Nodes: 1, PPN: 4, Walltime: time.Second, Script: script})
		id2, _ := c.Submit(pbs.JobSpec{Name: "b", Owner: "u", Nodes: 1, PPN: 4, Walltime: time.Second, Script: script})
		i1, _ := c.Wait(id1)
		i2, _ := c.Wait(id2)
		if i2.StartedAt >= i1.CompletedAt {
			t.Errorf("ppn=4 jobs did not share the node: b started %v, a completed %v", i2.StartedAt, i1.CompletedAt)
		}
	})
}

func TestMultiNodeJobRanksAndHosts(t *testing.T) {
	tb := newTestbed(t, 3, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		var mu sync.Mutex
		ranks := map[string]int{}
		id, err := c.Submit(pbs.JobSpec{
			Name: "mpi", Owner: "u", Nodes: 3, PPN: 8, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				mu.Lock()
				ranks[env.Host] = env.Rank
				mu.Unlock()
				if len(env.Hosts) != 3 {
					t.Errorf("nodefile has %d hosts", len(env.Hosts))
				}
				if env.MSHost != env.Hosts[0] {
					t.Errorf("MS = %s, hosts[0] = %s", env.MSHost, env.Hosts[0])
				}
			},
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		c.Wait(id)
		mu.Lock()
		defer mu.Unlock()
		if len(ranks) != 3 {
			t.Errorf("script ran on %d hosts, want 3", len(ranks))
		}
		seen := map[int]bool{}
		for _, r := range ranks {
			seen[r] = true
		}
		if !seen[0] || !seen[1] || !seen[2] {
			t.Errorf("ranks = %v", ranks)
		}
	})
}

func TestDynGetGrantsAndDynFreeReleases(t *testing.T) {
	tb := newTestbed(t, 1, 4, nil)
	tb.run(t, func(c *pbs.Client) {
		var grant pbs.DynGrant
		var dynErr, freeErr error
		id, err := c.Submit(pbs.JobSpec{
			Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				grant, dynErr = cl.DynGet(env.JobID, env.Host, 2)
				if dynErr == nil {
					freeErr = cl.DynFree(env.JobID, grant.ClientID)
				}
			},
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err := c.Wait(id)
		if err != nil {
			t.Errorf("Wait: %v", err)
			return
		}
		if dynErr != nil {
			t.Errorf("DynGet: %v", dynErr)
		}
		if freeErr != nil {
			t.Errorf("DynFree: %v", freeErr)
		}
		if len(grant.Hosts) != 2 || grant.ClientID <= 0 {
			t.Errorf("grant = %+v", grant)
		}
		if len(info.DynRecords) != 1 {
			t.Fatalf("DynRecords = %v", info.DynRecords)
		}
		rec := info.DynRecords[0]
		if rec.State != pbs.DynGranted {
			t.Errorf("record state = %v", rec.State)
		}
		if !(rec.ArrivedAt <= rec.ServiceAt && rec.ServiceAt <= rec.AllocAt && rec.AllocAt <= rec.ForwardedAt && rec.ForwardedAt <= rec.RepliedAt) {
			t.Errorf("record timestamps out of order: %+v", rec)
		}
		nodes, _ := c.Nodes()
		for _, n := range nodes {
			if len(n.Jobs) != 0 {
				t.Errorf("node %s not freed: %v", n.Name, n.Jobs)
			}
		}
	})
}

func TestDynGetRejectedWhenShort(t *testing.T) {
	tb := newTestbed(t, 1, 2, nil)
	tb.run(t, func(c *pbs.Client) {
		var dynErr error
		var grant pbs.DynGrant
		finished := false
		id, _ := c.Submit(pbs.JobSpec{
			Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				// Only 1 accelerator left; ask for 3.
				grant, dynErr = cl.DynGet(env.JobID, env.Host, 3)
				finished = true // application continues after rejection
			},
		})
		info, _ := c.Wait(id)
		if dynErr == nil {
			t.Errorf("DynGet should have been rejected, got %+v", grant)
		}
		if grant.ClientID >= 0 {
			t.Errorf("rejection should carry negative client-id, got %d", grant.ClientID)
		}
		if !finished {
			t.Error("script did not continue after rejection")
		}
		if len(info.DynRecords) != 1 || info.DynRecords[0].State != pbs.DynRejected {
			t.Errorf("DynRecords = %+v", info.DynRecords)
		}
	})
}

func TestDynGetOnNonRunningJob(t *testing.T) {
	tb := newTestbed(t, 1, 1, nil)
	tb.run(t, func(c *pbs.Client) {
		if _, err := c.DynGet("77.pbs/server", "cn0", 1); err == nil {
			t.Error("DynGet on unknown job should fail")
		}
		id, _ := c.Submit(pbs.JobSpec{
			Name: "x", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				if _, err := cl.DynGet(env.JobID, env.Host, 0); err == nil {
					t.Error("DynGet with count 0 should fail")
				}
			},
		})
		c.Wait(id)
	})
}

func TestDynFreeUnknownClientID(t *testing.T) {
	tb := newTestbed(t, 1, 1, nil)
	tb.run(t, func(c *pbs.Client) {
		id, _ := c.Submit(pbs.JobSpec{
			Name: "x", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				if err := cl.DynFree(env.JobID, 999); err == nil {
					t.Error("DynFree with bogus client-id should fail")
				}
			},
		})
		c.Wait(id)
	})
}

func TestSerialDynServicing(t *testing.T) {
	// Three jobs issue a dynamic request at (nearly) the same time;
	// the server's serial processing must produce strictly increasing
	// completion times (the Figure 9 staircase).
	tb := newTestbed(t, 3, 6, nil)
	tb.run(t, func(c *pbs.Client) {
		var mu sync.Mutex
		doneAt := map[string]time.Duration{}
		mk := func(delay time.Duration) pbs.Script {
			return func(env *pbs.JobEnv) {
				tb.s.Sleep(50*time.Millisecond + delay) // let all three jobs start
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				if _, err := cl.DynGet(env.JobID, env.Host, 1); err != nil {
					t.Errorf("DynGet on %s: %v", env.Host, err)
				}
				mu.Lock()
				doneAt[env.JobID] = tb.s.Now()
				mu.Unlock()
			}
		}
		var ids []string
		for i := 0; i < 3; i++ {
			id, err := c.Submit(pbs.JobSpec{
				Name: "j", Owner: "u", Nodes: 1, PPN: 8, ACPN: 1, Walltime: time.Second,
				Script: mk(time.Duration(i) * time.Microsecond),
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			c.Wait(id)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(doneAt) != 3 {
			t.Fatalf("doneAt = %v", doneAt)
		}
		// All three CNs must have distinct completion times.
		var times []time.Duration
		for _, at := range doneAt {
			times = append(times, at)
		}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if times[i] == times[j] {
					t.Errorf("dynamic requests serviced concurrently: %v", doneAt)
				}
			}
		}
	})
}

func TestDeleteQueuedJob(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		blocker, _ := c.Submit(pbs.JobSpec{Name: "blocker", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(300 * time.Millisecond) }})
		queued, _ := c.Submit(pbs.JobSpec{Name: "victim", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { t.Error("deleted job must not run") }})
		tb.s.Sleep(20 * time.Millisecond)
		if err := c.Delete(queued); err != nil {
			t.Errorf("Delete: %v", err)
		}
		info, err := c.Wait(queued)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		if info.State != pbs.JobDeleted {
			t.Errorf("state = %v", info.State)
		}
		c.Wait(blocker)
	})
}

func TestDeleteUnknownJob(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		if err := c.Delete("nope"); err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Errorf("err = %v", err)
		}
		if _, err := c.Stat("nope"); err == nil {
			t.Error("Stat of unknown job should fail")
		}
		if _, err := c.Wait("nope"); err == nil {
			t.Error("Wait of unknown job should fail")
		}
	})
}

func TestSubmitInvalidSpec(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		if _, err := c.Submit(pbs.JobSpec{Nodes: 0}); err == nil {
			t.Error("Nodes=0 should be rejected")
		}
		if _, err := c.Submit(pbs.JobSpec{Nodes: 1, PPN: -1}); err == nil {
			t.Error("negative PPN should be rejected")
		}
	})
}

func TestNodesView(t *testing.T) {
	tb := newTestbed(t, 2, 3, nil)
	tb.run(t, func(c *pbs.Client) {
		nodes, err := c.Nodes()
		if err != nil {
			t.Errorf("Nodes: %v", err)
			return
		}
		cn, ac := 0, 0
		for _, n := range nodes {
			switch n.Type {
			case pbs.ComputeNode:
				cn++
				if n.Cores != 8 || !n.Free() || n.FreeCores() != 8 {
					t.Errorf("bad CN view: %+v", n)
				}
			case pbs.AcceleratorNode:
				ac++
				if !n.Free() {
					t.Errorf("bad AC view: %+v", n)
				}
			}
		}
		if cn != 2 || ac != 3 {
			t.Errorf("cn=%d ac=%d", cn, ac)
		}
	})
}

func TestStartDaemonsInvoked(t *testing.T) {
	tb := newTestbed(t, 1, 2, nil)
	var mu sync.Mutex
	started := map[string][]string{}
	tb.moms["cn0"].StartDaemons = func(jobID, cn string, acHosts []string, cause uint64) {
		mu.Lock()
		started[cn] = acHosts
		mu.Unlock()
	}
	tb.run(t, func(c *pbs.Client) {
		id, _ := c.Submit(pbs.JobSpec{Name: "dac", Owner: "u", Nodes: 1, PPN: 1, ACPN: 2, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {}})
		c.Wait(id)
		mu.Lock()
		defer mu.Unlock()
		if len(started["cn0"]) != 2 {
			t.Errorf("StartDaemons got %v", started)
		}
	})
}

func TestJobStateStrings(t *testing.T) {
	cases := map[string]string{
		pbs.JobQueued.String():    "Q",
		pbs.JobRunning.String():   "R",
		pbs.JobCompleted.String(): "C",
		pbs.JobDeleted.String():   "D",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("state string %q != %q", got, want)
		}
	}
	if pbs.JobState(99).String() != "?" {
		t.Error("unknown state should print ?")
	}
	if pbs.DynQueued.String() != "dynqueued" {
		t.Errorf("DynQueued = %q", pbs.DynQueued.String())
	}
	if pbs.DynState(99).String() != "?" {
		t.Error("unknown dyn state should print ?")
	}
	if pbs.AcceleratorNode.String() != "accelerator" || pbs.ComputeNode.String() != "compute" {
		t.Error("node type strings wrong")
	}
}

// A closed client has given its endpoint back to the fabric: every call
// fails with ErrClosed instead of acting through whoever holds the
// endpoint's storage now, and the name it replied on is gone.
func TestClientCallsAfterCloseFail(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		before := tb.net.Census().Endpoints
		other := pbs.NewClient(tb.net, "side", pbs.ServerEndpoint)
		if _, err := other.Nodes(); err != nil {
			t.Fatalf("Nodes: %v", err)
		}
		other.Close()
		other.Close() // a no-op
		if got := tb.net.Census(); got.Endpoints != before || got.Dangling != 0 {
			t.Errorf("census after Close = %+v, want %d endpoints", got, before)
		}
		next := pbs.NewClient(tb.net, "side", pbs.ServerEndpoint) // reuses the storage
		defer next.Close()
		if _, err := other.Nodes(); !errors.Is(err, netsim.ErrClosed) {
			t.Errorf("Nodes after Close: %v, want ErrClosed", err)
		}
		if _, err := other.Submit(pbs.JobSpec{Name: "late", Owner: "u", Nodes: 1, PPN: 1}); !errors.Is(err, netsim.ErrClosed) {
			t.Errorf("Submit after Close: %v, want ErrClosed", err)
		}
		if err := other.DynFree("1.server", 1); !errors.Is(err, netsim.ErrClosed) {
			t.Errorf("DynFree after Close: %v, want ErrClosed", err)
		}
		if _, err := next.Nodes(); err != nil {
			t.Errorf("the next client on the reused endpoint: %v", err)
		}
	})
}
