package maui

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/pbs"
	"repro/internal/sim"
)

func newAuditedSyncBed(nCN, nAC int, withMoms bool, sp pbs.ServerParams, mp Params) (*syncBed, *audit.Recorder) {
	rec := audit.New(1 << 16)
	s := sim.New()
	s.SetAudit(rec)
	return newSyncBedOn(s, nCN, nAC, withMoms, sp, mp), rec
}

func fastParams() Params {
	mp := DefaultParams()
	mp.CycleOverhead = time.Millisecond
	mp.PerJobCost = 100 * time.Microsecond
	mp.DynPerReqCost = 100 * time.Microsecond
	return mp
}

// cycleUntil steps scheduler cycles, pause apart, until *done (guarded
// by mu) is set by the actor submitting the workload.
func cycleUntil(b *syncBed, mu *sync.Mutex, done *bool, pause time.Duration) {
	for {
		mu.Lock()
		stop := *done
		mu.Unlock()
		if stop {
			return
		}
		b.sc.RunCycleOnce()
		b.s.Sleep(pause)
	}
}

// The scheduler's half of the invariant engine checks the nodes each
// answer's delta brought; the sweep riding digestSched checks the whole
// mirror. Shadowing every cycle's delta checks with that sweep, under
// the same lock hold, the two must flag the same nodes every cycle —
// through placements, dynamic sets, deletions and node failures.
func TestMirrorSweepAgreesWithDeltaChecksEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		name               string
		shards, partitions int
	}{
		{"faithful", 0, 0},
		{"partitioned", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mp := fastParams()
			mp.Partitions = tc.partitions
			b, rec := newAuditedSyncBed(16, 32, true, pbs.ServerParams{Processing: 200 * time.Microsecond, Shards: tc.shards}, mp)
			var got []string // maui breaches, recorded under sc.mu like the hook below
			rec.OnBreach(func(e audit.Event) {
				if e.Comp == "maui" {
					got = append(got, e.Subj+" "+e.Detail)
				}
			})
			cycles := 0
			b.sc.auditAfterCycle = func() {
				cycles++
				delta := got
				got = nil
				for i := range b.sc.view.Nodes {
					b.sc.auditNodeLocked(&b.sc.view.Nodes[i])
				}
				sort.Strings(delta)
				sort.Strings(got)
				if !slices.Equal(slices.Compact(delta), slices.Compact(got)) {
					t.Errorf("cycle %d: delta checks flag %q, mirror sweep %q", cycles, delta, got)
				}
				got = nil
			}
			b.run(t, func() {
				const jobs = 120
				rng := sim.NewRNG(5)
				var mu sync.Mutex
				drained := false
				b.s.Go("submitter", func() {
					c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
					var ids []string
					for i := 0; i < jobs; i++ {
						runFor := time.Duration(20+rng.Intn(100)) * time.Millisecond
						dyn := rng.Intn(4) == 0
						id, err := c.Submit(pbs.JobSpec{
							Name: "j", Owner: "u", Walltime: time.Second,
							Nodes: 1 + rng.Intn(2), PPN: 1 + rng.Intn(8), ACPN: rng.Intn(3),
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
						switch {
						case i%10 == 3:
							_ = c.Delete(ids[rng.Intn(len(ids))])
						case i%10 == 6:
							b.server.NodeDownForTest(fmt.Sprintf("ac%d", rng.Intn(32)))
						case i%30 == 9:
							b.server.NodeDownForTest(fmt.Sprintf("cn%d", rng.Intn(16)))
						}
					}
					for _, id := range ids {
						if _, err := c.Wait(id); err != nil {
							t.Errorf("Wait %s: %v", id, err)
						}
					}
					mu.Lock()
					drained = true
					mu.Unlock()
				})
				cycleUntil(b, &mu, &drained, 10*time.Millisecond)
			})
			if cycles < 50 {
				t.Errorf("only %d cycles ran", cycles)
			}
			if n := rec.Breaches(); n != 0 {
				t.Errorf("%d breaches on a run nobody tampered with", n)
			}
		})
	}
}

// A write into the mirror that no server delta carried is what the
// digest round's sweep is for: the cycles in between check only the
// nodes the server hands over, the round checks them all — and each of
// the scheduler's two invariants names the fault that is its own.
func TestMirrorFaultsWaitForTheDigestRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(n *pbs.NodeInfo)
		want   string
	}{
		{"usage beyond capacity", func(n *pbs.NodeInfo) { n.UsedCores = n.Cores + 1 }, "view.capacity"},
		{"occupant the server never listed", func(n *pbs.NodeInfo) { n.Jobs = append(n.Jobs, "901.ghost") }, "view.agreement"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, rec := newAuditedSyncBed(4, 8, false, pbs.ServerParams{Processing: time.Millisecond}, fastParams())
			b.run(t, func() {
				for i := 0; i < 3; i++ {
					b.sc.RunCycleOnce()
				}
				tc.tamper(&b.sc.view.Nodes[1])
				for i := 0; i < 5; i++ {
					b.sc.RunCycleOnce()
				}
				if n := rec.Breaches(); n != 0 {
					t.Errorf("%d breaches before the digest round: no delta carried the node", n)
				}
				rec.CaptureDigests()
			})
			var names []string
			for _, e := range rec.Events() {
				if e.Kind == audit.KindBreach {
					names = append(names, e.Comp+" "+e.Subj+" "+e.Detail)
				}
			}
			if want := []string{"maui " + tc.want + " cn1"}; !slices.Equal(names, want) {
				t.Errorf("digest round flagged %q, want %q", names, want)
			}
		})
	}
}

// The pin on the engine's complexity: what a cycle boundary checks
// follows what moved since the last one, so an idle cycle costs the
// same handful of checks on 64 nodes and on 1024, after no job and
// after 4096 — where a walk of the table and of the job history would
// cost thousands.
func TestIdleCycleChecksIndependentOfTableAndHistory(t *testing.T) {
	idleChecks := func(nCN, jobs int) int64 {
		b, rec := newAuditedSyncBed(nCN, 8*nCN, jobs > 0, pbs.ServerParams{Processing: 200 * time.Microsecond}, fastParams())
		var delta int64
		b.run(t, func() {
			if jobs > 0 {
				var mu sync.Mutex
				drained := false
				b.s.Go("submitter", func() {
					c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
					ids := make([]string, 0, jobs)
					for i := 0; i < jobs; i++ {
						id, err := c.Submit(pbs.JobSpec{
							Name: "j", Owner: "u", Nodes: 1, PPN: 1, ACPN: i % 2, Walltime: time.Second,
							Script: func(env *pbs.JobEnv) { b.s.Sleep(5 * time.Millisecond) },
						})
						if err != nil {
							t.Errorf("Submit: %v", err)
							break
						}
						ids = append(ids, id)
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
				cycleUntil(b, &mu, &drained, 5*time.Millisecond)
			}
			for i := 0; i < 5; i++ { // the last releases, and on a fresh bed every node once
				b.sc.RunCycleOnce()
				b.s.Sleep(5 * time.Millisecond)
			}
			before := rec.Checks()
			for i := 0; i < 100; i++ {
				b.sc.RunCycleOnce()
			}
			delta = rec.Checks() - before
		})
		if n := rec.Breaches(); n != 0 {
			t.Errorf("%d CN, %d jobs: %d breaches", nCN, jobs, n)
		}
		return delta
	}
	base := idleChecks(64, 0)
	if base == 0 || base > 1000 {
		t.Errorf("100 idle cycles on 64 CN ran %d checks, want a handful per cycle", base)
	}
	if wide := idleChecks(1024, 0); wide != base {
		t.Errorf("100 idle cycles ran %d checks on 1024 CN, %d on 64", wide, base)
	}
	if long := idleChecks(64, 4096); long != base {
		t.Errorf("100 idle cycles ran %d checks after 4096 jobs, %d after none", long, base)
	}
}
