package maui

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// syncBed is a server, its moms and a scheduler whose cycles the test
// steps itself (the scheduler actor is never started), so it can look
// at the pools between a cycle's update and its placements.
type syncBed struct {
	s      *sim.Simulation
	net    *netsim.Network
	server *pbs.Server
	sc     *Scheduler
	moms   []*pbs.Mom
}

func newSyncBed(nCN, nAC int, withMoms bool, sp pbs.ServerParams, mp Params) *syncBed {
	return newSyncBedOn(sim.New(), nCN, nAC, withMoms, sp, mp)
}

// newSyncBedOn builds the bed on a caller-provided simulation, so a
// test can install a flight recorder before the daemons resolve it.
func newSyncBedOn(s *sim.Simulation, nCN, nAC int, withMoms bool, sp pbs.ServerParams, mp Params) *syncBed {
	net := netsim.New(s, netsim.LinkParams{Latency: 200 * time.Microsecond})
	b := &syncBed{s: s, net: net, server: pbs.NewServer(net, sp), sc: New(net, pbs.ServerEndpoint, mp)}
	add := func(name string, typ pbs.NodeType, cores int) {
		b.server.AddNode(name, typ, cores)
		if withMoms {
			m := pbs.NewMom(net, name, pbs.MomParams{})
			m.Cluster = net
			b.moms = append(b.moms, m)
		}
	}
	for i := 0; i < nCN; i++ {
		add(fmt.Sprintf("cn%d", i), pbs.ComputeNode, 8)
	}
	for i := 0; i < nAC; i++ {
		add(fmt.Sprintf("ac%d", i), pbs.AcceleratorNode, 1)
	}
	return b
}

func (b *syncBed) run(t *testing.T, fn func()) {
	t.Helper()
	err := b.s.Run(func() {
		defer b.net.Close()
		b.server.Start()
		for _, m := range b.moms {
			m.Start()
		}
		fn()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// checkPoolsFresh compares the scheduler's persistent pools with pools
// built from the whole mirror, the way every cycle used to build them.
func checkPoolsFresh(t *testing.T, sc *Scheduler, cycle int) {
	t.Helper()
	p, fresh := sc.pool, newTestPools(sc.view.Nodes)
	if len(p.cns) != len(fresh.cns) || p.nACs != fresh.nACs || !slices.Equal(p.acs, fresh.acs) {
		t.Fatalf("cycle %d: %d nodes %d free ACs %x, fresh %d nodes %d free ACs %x",
			cycle, len(p.cns), p.nACs, p.acs, len(fresh.cns), fresh.nACs, fresh.acs)
	}
	for l := range p.cns {
		if p.cns[l].free != fresh.cns[l].free || !slices.Equal(p.cns[l].jobs, fresh.cns[l].jobs) {
			t.Fatalf("cycle %d: %s is %+v, fresh %+v", cycle, p.node(l).Name, p.cns[l], fresh.cns[l])
		}
	}
	if len(p.levels) != len(fresh.levels) {
		t.Fatalf("cycle %d: %d levels, fresh %d", cycle, len(p.levels), len(fresh.levels))
	}
	for c := range p.levels {
		if !slices.Equal(p.levels[c], fresh.levels[c]) {
			t.Fatalf("cycle %d: level %d is %x, fresh %x", cycle, c, p.levels[c], fresh.levels[c])
		}
	}
	for w := 0; w < p.acLow; w++ {
		if p.acs[w] != 0 {
			t.Fatalf("cycle %d: free accelerator below the scan start %d", cycle, p.acLow)
		}
	}
	if len(p.touched) != 0 {
		t.Fatalf("cycle %d: %d nodes still marked charged after the update", cycle, len(p.touched))
	}
}

// At the start of every cycle's placements the persistent pools must
// be what a rebuild from the full node view would give — including
// after placements the server refused, which must leave no ghost
// reservation behind. The test holds a queued job between the
// scheduler's fetch and its AllocCmd, so the server drops the command.
func TestPersistentPoolsEqualFreshPoolsEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shards     int
		partitions int
	}{
		{"faithful", 0, 0},
		{"partitioned", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mp := DefaultParams()
			mp.CycleOverhead = time.Millisecond
			mp.PerJobCost = 100 * time.Microsecond
			mp.DynPerReqCost = 100 * time.Microsecond
			mp.Partitions = tc.partitions
			b := newSyncBed(64, 128, true, pbs.ServerParams{Processing: 200 * time.Microsecond, Shards: tc.shards}, mp)
			b.run(t, func() {
				const jobs = 400
				rng := sim.NewRNG(7)
				var mu sync.Mutex
				drained := false
				b.s.Go("submitter", func() {
					c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
					ids := make([]string, 0, jobs)
					for i := 0; i < jobs; i++ {
						runFor := time.Duration(20+rng.Intn(200)) * time.Millisecond
						dyn := rng.Intn(4) == 0
						id, err := c.Submit(pbs.JobSpec{
							Name: "j", Owner: fmt.Sprintf("u%d", rng.Intn(4)),
							Nodes: 1 + rng.Intn(4), PPN: 1 + rng.Intn(8), ACPN: rng.Intn(3),
							Walltime: time.Second,
							Script: func(env *pbs.JobEnv) {
								if dyn && env.Rank == 0 {
									cl := pbs.NewClient(b.net, env.Host, env.ServerEP)
									if g, err := cl.DynGet(env.JobID, env.Host, 2); err == nil {
										b.s.Sleep(runFor / 2)
										_ = cl.DynFree(env.JobID, g.ClientID) // the job may have ended under it
									}
								}
								b.s.Sleep(runFor)
							},
						})
						if err != nil {
							t.Errorf("Submit: %v", err)
							break
						}
						ids = append(ids, id)
						b.s.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
					}
					for _, id := range ids {
						if info, err := c.Wait(id); err != nil || info.State != pbs.JobCompleted {
							t.Errorf("job %s: state %v err %v", id, info.State, err)
						}
					}
					mu.Lock()
					drained = true
					mu.Unlock()
				})

				c := pbs.NewClient(b.net, "operator", pbs.ServerEndpoint)
				refused := 0
				for cycle := 0; ; cycle++ {
					mu.Lock()
					stop := drained
					mu.Unlock()
					if stop {
						break
					}
					info, err := b.sc.beginCycle(nil)
					if err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					checkPoolsFresh(t, b.sc, cycle)
					held := ""
					if cycle%3 == 0 && len(b.sc.view.Queued) > 0 {
						held = b.sc.view.Queued[0].ID
						if err := c.Hold(held); err != nil {
							t.Fatalf("Hold: %v", err)
						}
					}
					placed := b.sc.Stats().JobsPlaced
					b.sc.schedule(info, nil)
					info.Release()
					if held != "" {
						b.s.Sleep(5 * time.Millisecond) // the AllocCmd, if any, reaches the server first
						if st, err := c.Stat(held); err == nil && st.State == pbs.JobQueued && b.sc.Stats().JobsPlaced > placed {
							refused++
						}
						if err := c.Release(held); err != nil {
							t.Fatalf("Release: %v", err)
						}
					}
					b.s.Sleep(10 * time.Millisecond)
				}
				if refused < 10 {
					t.Errorf("only %d placements were refused: rollback was barely exercised", refused)
				}
			})
		})
	}
}

// An idle cycle on a wide cluster costs what changed — nothing: the
// server's answer carries no node and the whole round (request, answer,
// mirror, pools, an empty placement pass) allocates nothing.
func TestIdleCycleCopiesNoNodesAndAllocatesNothing(t *testing.T) {
	mp := DefaultParams()
	b := newSyncBed(1024, 8192, false, pbs.ServerParams{Processing: time.Millisecond}, mp)
	b.run(t, func() {
		for i := 0; i < 20; i++ { // fill the pooled answer, mailboxes and scratch
			b.sc.RunCycleOnce()
		}
		if len(b.sc.view.Nodes) != 1024+8192 {
			t.Fatalf("mirror holds %d nodes", len(b.sc.view.Nodes))
		}
		info, err := b.sc.beginCycle(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Nodes) != 0 {
			t.Errorf("idle round copied %d nodes, want 0", len(info.Nodes))
		}
		info.Release()
		if raceDetectorOn {
			return
		}
		if allocs := testing.AllocsPerRun(100, b.sc.RunCycleOnce); allocs != 0 {
			t.Errorf("idle cycle allocates %v times, want 0", allocs)
		}
	})
}

// A cycle after 16 accelerators changed costs what changed and no
// more: a window of 16 sliding over the table fails on even rounds and
// reports back by heartbeat on odd ones, the server's answer carries
// exactly those nodes, and the round allocates nothing. The churn —
// the server's failure and heartbeat handling — runs before each
// measured round, so the count is read around the round alone, the way
// AllocsPerRun reads it around a whole function.
func TestChurnedCycleAllocatesNothing(t *testing.T) {
	const window = 16
	sp := pbs.ServerParams{Processing: time.Millisecond}
	b := newSyncBed(1024, 8192, false, sp, DefaultParams())
	b.run(t, func() {
		hb := b.net.Endpoint("heartbeat")
		round := 0
		churn := func() {
			first := round / 2 * window % 8192
			for k := first; k < first+window; k++ {
				name := fmt.Sprintf("ac%d", k)
				if round%2 == 0 {
					b.server.NodeDownForTest(name)
				} else if err := hb.Send(pbs.ServerEndpoint, "pbs", &pbs.HeartbeatMsg{Host: name}, 0); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			round++
			b.s.Sleep((window + 1) * sp.Processing) // one heartbeat per Processing interval
		}
		for i := 0; i < 20; i++ { // fill the pooled answer, mailboxes and scratch
			churn()
			b.sc.RunCycleOnce()
		}
		churn()
		info, err := b.sc.beginCycle(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Nodes) != window {
			t.Errorf("churned round copied %d nodes, want %d", len(info.Nodes), window)
		}
		info.Release()
		if raceDetectorOn {
			return
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var ms runtime.MemStats
		var mallocs uint64
		const rounds = 100
		for i := 0; i < rounds; i++ {
			churn()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			b.sc.RunCycleOnce()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
		}
		if mallocs != 0 {
			t.Errorf("%d churned cycles allocate %d times, want 0", rounds, mallocs)
		}
	})
}

// deepBytes is the storage a value occupies once copied: its own size
// plus whatever its slices, maps and pointers reach. String bytes are
// not counted — a copied string shares them with its source.
func deepBytes(v reflect.Value) uintptr {
	n := v.Type().Size()
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n += deepBytes(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			n += deepBytes(it.Key()) + deepBytes(it.Value())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += deepBytes(v.Field(i)) - v.Field(i).Type().Size()
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			n += deepBytes(v.Elem())
		}
	}
	return n
}

// What a running job costs a scheduler round does not depend on its
// history: with 128 running jobs the round allocates nothing, and the
// job lists of the answer occupy the same bytes, whether each job has
// never asked for an accelerator or holds a dynamic set with sixteen
// finished requests on record.
func TestRunningJobsCostARoundTheSameWhateverTheirHistory(t *testing.T) {
	const jobs, finished = 128, 16
	mp := DefaultParams()
	mp.CycleOverhead = time.Millisecond
	mp.DynPerReqCost = 100 * time.Microsecond
	b := newSyncBed(jobs/8, jobs+1, true, pbs.ServerParams{Processing: 100 * time.Microsecond}, mp)
	b.run(t, func() {
		var mu sync.Mutex
		ask := b.s.NewGate("ask")
		asking, holding := false, 0
		c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
		for i := 0; i < jobs; i++ {
			_, err := c.Submit(pbs.JobSpec{
				Name: "j", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Hour,
				Script: func(env *pbs.JobEnv) {
					mu.Lock()
					for !asking {
						ask.Wait(&mu)
					}
					mu.Unlock()
					cl := pbs.NewClient(b.net, "dyn/"+env.JobID, env.ServerEP)
					for k := 0; k <= finished; k++ {
						g, err := cl.DynGet(env.JobID, env.Host, 1)
						if err != nil {
							t.Errorf("DynGet %d of %s: %v", k, env.JobID, err)
							break
						}
						if k < finished { // the last set stays
							if err := cl.DynFree(env.JobID, g.ClientID); err != nil {
								t.Errorf("DynFree: %v", err)
							}
						}
					}
					mu.Lock()
					holding++
					mu.Unlock()
					b.s.Sleep(time.Hour)
				},
			})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}

		// measure steps the scheduler until the cluster is quiet, then
		// reports what the next answer's job lists occupy and what 100
		// rounds allocate.
		measure := func(what string) (bytes uintptr, allocs float64) {
			for i := 0; i < 20; i++ { // the pooled answer, mailboxes and scratch fill
				b.sc.RunCycleOnce()
				b.s.Sleep(10 * time.Millisecond)
			}
			info, err := b.sc.beginCycle(nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.Queued != 0 || info.Running != jobs || len(info.Dyn) != 0 {
				t.Fatalf("%s: answer counts %d queued, %d running, %d dynamic; want 0, %d, 0",
					what, info.Queued, info.Running, len(info.Dyn), jobs)
			}
			bytes = deepBytes(reflect.ValueOf(b.sc.view.Queued)) + deepBytes(reflect.ValueOf(b.sc.view.Running))
			info.Release()
			if !raceDetectorOn {
				allocs = testing.AllocsPerRun(100, b.sc.RunCycleOnce)
			}
			return bytes, allocs
		}
		freshBytes, freshAllocs := measure("fresh jobs")

		mu.Lock()
		asking = true
		mu.Unlock()
		ask.Broadcast()
		for cycle := 0; ; cycle++ {
			mu.Lock()
			done := holding == jobs
			mu.Unlock()
			if done {
				break
			}
			if cycle > 100*jobs*finished {
				t.Fatalf("only %d of %d jobs hold their set after %d cycles", holding, jobs, cycle)
			}
			b.sc.RunCycleOnce()
			b.s.Sleep(time.Millisecond)
		}
		infos, err := c.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		for _, j := range infos {
			if len(j.DynSets) != 1 || len(j.DynRecords) != finished+1 {
				t.Fatalf("job %s holds %d sets with %d requests on record, want 1 and %d",
					j.ID, len(j.DynSets), len(j.DynRecords), finished+1)
			}
		}
		usedBytes, usedAllocs := measure("jobs with history")

		if freshBytes != usedBytes {
			t.Errorf("the answer's job lists occupy %d bytes for fresh jobs, %d once each has %d requests on record",
				freshBytes, usedBytes, finished+1)
		}
		if freshAllocs != 0 || usedAllocs != 0 {
			t.Errorf("a round allocates %v times with fresh jobs, %v with history; want 0 and 0", freshAllocs, usedAllocs)
		}
	})
}
