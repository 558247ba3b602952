package pbs_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/maui"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// newShardedTestbed mirrors newTestbed with the sharded server fast
// path enabled (and a configurable DYNJOIN cost, the quantity the
// pipelining overlaps).
func newShardedTestbed(t *testing.T, nCN, nAC, shards int, dynJoin time.Duration) *testbed {
	t.Helper()
	s := sim.New()
	net := netsim.New(s, netsim.LinkParams{Latency: 200 * time.Microsecond})
	tb := &testbed{s: s, net: net, moms: make(map[string]*pbs.Mom)}
	s.SetDeadline(horizon)
	tb.server = pbs.NewServer(net, pbs.ServerParams{Processing: time.Millisecond, Shards: shards})
	mp := maui.DefaultParams()
	mp.CycleInterval = 50 * time.Millisecond
	mp.CycleOverhead = 5 * time.Millisecond
	mp.PerJobCost = 2 * time.Millisecond
	mp.DynPerReqCost = 2 * time.Millisecond
	tb.sched = maui.New(net, pbs.ServerEndpoint, mp)
	tb.server.SetScheduler(tb.sched.Endpoint())
	for i := 0; i < nCN; i++ {
		name := cnName(i)
		tb.cns = append(tb.cns, name)
		tb.server.AddNode(name, pbs.ComputeNode, 8)
		m := pbs.NewMom(net, name, pbs.MomParams{JoinCost: time.Millisecond, DynJoinCost: dynJoin, StartCost: time.Millisecond})
		m.Cluster = net
		tb.moms[name] = m
	}
	for i := 0; i < nAC; i++ {
		name := acName(i)
		tb.acs = append(tb.acs, name)
		tb.server.AddNode(name, pbs.AcceleratorNode, 1)
		m := pbs.NewMom(net, name, pbs.MomParams{JoinCost: time.Millisecond, DynJoinCost: dynJoin})
		m.Cluster = net
		tb.moms[name] = m
	}
	return tb
}

// A batch of jobs must run to completion through the sharded server
// exactly as through the faithful one.
func TestShardedServerCompletesWorkload(t *testing.T) {
	tb := newShardedTestbed(t, 4, 2, 4, 2*time.Millisecond)
	tb.run(t, func(c *pbs.Client) {
		var ids []string
		for i := 0; i < 12; i++ {
			id, err := c.Submit(pbs.JobSpec{
				Name: "batch", Owner: "alice", Nodes: 1, PPN: 2,
				Walltime: time.Second,
				Script: func(env *pbs.JobEnv) {
					tb.s.Sleep(20 * time.Millisecond)
				},
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			info, err := c.Wait(id)
			if err != nil {
				t.Errorf("Wait(%s): %v", id, err)
				return
			}
			if info.State != pbs.JobCompleted {
				t.Errorf("job %s state = %v", id, info.State)
			}
		}
	})
}

// dynScenarioElapsed runs two concurrent jobs that each issue one
// dynamic node request at the same virtual instant (a barrier inside
// the scripts aligns them, so both requests are queued before the
// scheduler's next cycle observes either) and returns the virtual
// time from the barrier until both grants returned.
func dynScenarioElapsed(t *testing.T, tb *testbed) time.Duration {
	t.Helper()
	var elapsed time.Duration
	tb.run(t, func(c *pbs.Client) {
		var mu sync.Mutex
		ready, done := 0, 0
		var start time.Duration
		gate := tb.s.NewGate("dyn-scenario")
		var ids []string
		for i := 0; i < 2; i++ {
			// PPN 8 fills a node, so the two jobs land on distinct
			// compute nodes and each has its own mother superior; the
			// same-cycle grants then pick distinct free nodes, so the
			// two DYNJOINs run on distinct moms and the only remaining
			// serialization is the server's.
			id, err := c.Submit(pbs.JobSpec{
				Name: "dyn", Owner: "alice", Nodes: 1, PPN: 8,
				Walltime: time.Second,
				Script: func(env *pbs.JobEnv) {
					cl := pbs.NewClient(tb.net, "job-"+env.JobID, pbs.ServerEndpoint)
					defer cl.Close()
					mu.Lock()
					ready++
					if ready == 2 {
						start = tb.s.Now()
					}
					for ready < 2 {
						gate.Wait(&mu)
					}
					mu.Unlock()
					gate.Broadcast()
					// A full-node request (ppn 8): the cycle's shared
					// pool then hands the two requests distinct nodes,
					// so their DYNJOINs run on distinct moms.
					grant, err := cl.DynGetNodes(env.JobID, env.Host, 1, 8)
					if err != nil {
						t.Errorf("DynGetNodes: %v", err)
						return
					}
					if err := cl.DynFree(env.JobID, grant.ClientID); err != nil {
						t.Errorf("DynFree: %v", err)
					}
					mu.Lock()
					done++
					mu.Unlock()
					gate.Broadcast()
				},
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids = append(ids, id)
		}
		mu.Lock()
		for done < 2 {
			gate.Wait(&mu)
		}
		elapsed = tb.s.Now() - start
		mu.Unlock()
		for _, id := range ids {
			if _, err := c.Wait(id); err != nil {
				t.Errorf("Wait(%s): %v", id, err)
			}
		}
	})
	return elapsed
}

// Pipelined DYNJOIN: with the faithful server a join in flight blocks
// the next dynamic request end to end, so two concurrent requests pay
// roughly two join costs; the sharded server promotes every queued
// record at once and the joins overlap in virtual time.
func TestShardedDynJoinPipelined(t *testing.T) {
	const dynJoin = 80 * time.Millisecond
	// Shards=1 is the faithful serial loop; only the shard count
	// differs between the two runs.
	faithfulElapsed := dynScenarioElapsed(t, newShardedTestbed(t, 6, 0, 1, dynJoin))
	shardedElapsed := dynScenarioElapsed(t, newShardedTestbed(t, 6, 0, 4, dynJoin))

	if faithfulElapsed <= 0 || shardedElapsed <= 0 {
		t.Fatalf("elapsed not recorded: faithful %v, sharded %v", faithfulElapsed, shardedElapsed)
	}
	// The serial path pays the second join after the first completes;
	// the pipelined path overlaps them, saving at least half a join.
	if shardedElapsed+dynJoin/2 > faithfulElapsed {
		t.Fatalf("pipelined DYNJOIN did not overlap: faithful %v, sharded %v (join %v)",
			faithfulElapsed, shardedElapsed, dynJoin)
	}
}

// An id whose digits overflow an int is no job's, on whichever station
// routes it: every per-job request about it is answered as an unknown
// job, and the server goes on serving the real ones.
func TestShardedServerAnswersAnOverflowingIDAsUnknown(t *testing.T) {
	tb := newShardedTestbed(t, 1, 0, 4, time.Millisecond)
	tb.run(t, func(c *pbs.Client) {
		id, err := c.Submit(pbs.JobSpec{
			Name: "real", Owner: "alice", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(5 * time.Millisecond) },
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		for _, bad := range []string{"9223372036854775809.pbs/server", "99999999999999999999999.pbs/server"} {
			if _, err := c.Stat(bad); err == nil || err.Error() != pbs.ErrUnknownJob.Error() {
				t.Errorf("Stat(%s) = %v, want %v", bad, err, pbs.ErrUnknownJob)
			}
			if err := c.Hold(bad); err == nil || err.Error() != pbs.ErrUnknownJob.Error() {
				t.Errorf("Hold(%s) = %v, want %v", bad, err, pbs.ErrUnknownJob)
			}
			if err := c.Delete(bad); err == nil || err.Error() != pbs.ErrUnknownJob.Error() {
				t.Errorf("Delete(%s) = %v, want %v", bad, err, pbs.ErrUnknownJob)
			}
		}
		if info, err := c.Wait(id); err != nil || info.State != pbs.JobCompleted {
			t.Errorf("Wait(%s) = %v, %v; want completed", id, info.State, err)
		}
	})
}
