package pbs_test

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// The invariant engine has two callers for one set of check bodies
// (audit.go): the per-cycle pass over what moved and the full sweep of
// every digest round. These tests pin the contract between them:
// whatever a production write can break, the cycle pass sees as the
// sweep would (verdict equivalence), and each of the ten invariants
// fires for a fault of its own, at the next cycle when the write was
// stamped and at the next digest round when it was not (the matrix).

// auditBed is the failure-detecting testbed with a flight recorder,
// in either server mode.
func auditBed(t *testing.T, nCN, nAC, shards int) (*testbed, *audit.Recorder) {
	t.Helper()
	rec := audit.New(1 << 16)
	s := sim.New()
	s.SetAudit(rec)
	return ftTestbedSharded(t, s, nCN, nAC, shards), rec
}

// breachKeys reduces breach events to the sorted set of
// invariant/subject pairs they name.
func breachKeys(evs []audit.Event) []string {
	var keys []string
	for _, e := range evs {
		keys = append(keys, e.Subj+" "+e.Detail)
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}

// TestCycleEngineEqualsFullSweepEveryCycle runs a seeded mix of static
// and dynamic jobs, deletions and node failures with the full sweep
// shadowing the cycle engine at every scheduler-cycle boundary, on the
// same state under the same lock hold. The two must name the same
// breaches every cycle: none while the run is healthy — which also
// holds the engine's running class counts to the sweep's recount,
// through every crash and repair — and, for a fault written the way
// production writes, the same ones at the boundary that follows it.
// At every boundary, too, each claim the engine resolves through a
// job's own nodes must be the node of the host's name.
func TestCycleEngineEqualsFullSweepEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"faithful", 0},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, rec := auditBed(t, 3, 6, tc.shards)
			var mu sync.Mutex
			cycles, flagged, viaNodes := 0, 0, 0
			var seen *sim.Gate
			tb.server.ShadowSweepForTest(rec, func(cycle, sweep []audit.Event) {
				mu.Lock()
				defer mu.Unlock()
				cycles++
				// A claim the engine resolves through the job's own nodes
				// is the record the name map holds.
				via, _, wrong := tb.server.ClaimsForTest()
				viaNodes += via
				if wrong != 0 {
					t.Errorf("boundary %d at %v: %d of %d claims resolved through the job's nodes to another node than their name's", cycles, tb.s.Now(), wrong, via)
				}
				ck, sk := breachKeys(cycle), breachKeys(sweep)
				if !slices.Equal(ck, sk) {
					t.Errorf("boundary %d at %v: cycle engine flags %q, full sweep %q", cycles, tb.s.Now(), ck, sk)
				}
				if len(ck) > 0 {
					flagged++
					seen.Broadcast()
				}
			})
			runTolerant(t, tb, func(c *pbs.Client) {
				seen = tb.s.NewGate("flagged")
				// The operator's pbsnodes -o, six times over: accelerators
				// are dropped from their jobs, jobs on a compute node fail,
				// and the next heartbeat brings the node back.
				tb.s.Go("chaos", func() {
					for _, host := range []string{"ac1", "cn2", "ac3", "cn0", "ac1", "cn1"} {
						tb.s.Sleep(130 * time.Millisecond)
						tb.server.NodeDownForTest(host)
					}
				})
				rng := sim.NewRNG(11)
				var ids []string
				for i := 0; i < 40; i++ {
					runFor := time.Duration(10+rng.Intn(80)) * time.Millisecond
					dyn, dynCount, freeIt := rng.Intn(3) == 0, 1+rng.Intn(3), rng.Intn(2) == 0
					id, err := c.Submit(pbs.JobSpec{
						Name: fmt.Sprintf("rand-%d", i), Owner: "u", Walltime: time.Second,
						Nodes: 1 + rng.Intn(2), PPN: 1 + rng.Intn(8), ACPN: rng.Intn(2),
						Script: func(env *pbs.JobEnv) {
							if dyn {
								cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
								if g, err := cl.DynGet(env.JobID, env.Host, dynCount); err == nil && freeIt {
									cl.DynFree(env.JobID, g.ClientID)
								}
							}
							tb.s.Sleep(runFor)
						},
					})
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					ids = append(ids, id)
					tb.s.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
					if rng.Intn(5) == 0 {
						c.Delete(ids[rng.Intn(len(ids))])
					}
				}
				failed := 0
				for _, id := range ids {
					if info, err := c.Wait(id); err == nil && info.State == pbs.JobFailed {
						failed++
					}
				}
				if failed == 0 {
					t.Error("no job failed: the compute-node crash missed the workload")
				}
				mu.Lock()
				healthy := cycles
				if flagged != 0 {
					t.Errorf("%d of %d boundaries of the healthy run flagged a breach", flagged, cycles)
				}
				mu.Unlock()

				// Each fault stays for exactly one boundary: it is repaired,
				// again with a stamp, the moment that boundary has flagged
				// it, so the boundary after sees both passes clean again.
				for _, f := range []struct{ inject, repair pbs.Fault }{
					{pbs.UsedCoresFault("cn0", 3), pbs.UsedCoresFault("cn0", 0)},
					{pbs.OwnerFault("ac0", "901.ghost", 1), pbs.DisownFault("ac0", "901.ghost")},
					{pbs.OwnerFault("cn1", "902.ghost", 2), pbs.DisownFault("cn1", "902.ghost")},
				} {
					mu.Lock()
					before := flagged
					tb.server.InjectForTest(f.inject, true)
					for flagged == before {
						seen.Wait(&mu)
					}
					mu.Unlock()
					tb.server.InjectForTest(f.repair, true)
					tb.s.Sleep(120 * time.Millisecond)
				}
				mu.Lock()
				defer mu.Unlock()
				if healthy < 20 || flagged != 3 {
					t.Errorf("%d healthy boundaries, %d flagged ones; want at least 20 and exactly 3", healthy, flagged)
				}
				if viaNodes == 0 {
					t.Error("no claim resolved through a job's nodes")
				}
			})
		})
	}
}

// faultScene is the standing state every matrix row corrupts: two
// running jobs holding an accelerator each, one job that can never
// fit, and one completed.
type faultScene struct {
	a, b, queued, done string // job ids
	cnA, cnOther       string // a's compute node, and one a holds nothing on
	acA, acFree        string // a's accelerator, and one nobody holds
	usedA              int    // cnA's used cores
}

// TestAuditInjectionMatrix breaks each invariant with a fault of its
// own and holds the engine to its detection contract. "cycle" is the
// exact set of invariants breached in the cycles between the fault and
// the next digest round, which must start within one cycle of the
// fault; "round" is the exact set once that round has swept. A stamped
// write (the only kind production code makes) is seen whole at the
// next cycle. A raw one shows at a cycle only through the job side and
// the global identities, whole at the round. The two invariants the
// scheduler checks fire on what the server hands it; the maui package
// tests corrupt the mirror itself.
func TestAuditInjectionMatrix(t *testing.T) {
	const (
		ghost   = "901.ghost"
		faultAt = 2300 * time.Millisecond
		roundAt = 3 * auditRound
	)
	for _, row := range []struct {
		name  string
		fault func(sc faultScene) pbs.Fault
		touch bool
		cycle []string
		round []string
	}{
		{"ledger entry the view lacks, stamped",
			func(sc faultScene) pbs.Fault { return pbs.LedgerFault(sc.cnA, ghost, 1) }, true,
			[]string{"view.node-jobs"}, []string{"view.node-jobs"}},
		{"ledger entry the view lacks, raw",
			func(sc faultScene) pbs.Fault { return pbs.LedgerFault(sc.cnA, ghost, 1) }, false,
			nil, []string{"view.node-jobs"}},
		{"used cores off by one, stamped",
			func(sc faultScene) pbs.Fault { return pbs.UsedCoresFault(sc.cnA, sc.usedA+1) }, true,
			[]string{"conservation.cores"}, []string{"conservation.cores"}},
		{"used cores off by one, raw",
			func(sc faultScene) pbs.Fault { return pbs.UsedCoresFault(sc.cnA, sc.usedA+1) }, false,
			nil, []string{"conservation.cores"}},
		{"more used cores than the node has, stamped", // the scheduler's pools must survive the view
			func(sc faultScene) pbs.Fault { return pbs.UsedCoresFault(sc.cnA, 9) }, true,
			[]string{"conservation.cores", "view.capacity"}, []string{"conservation.cores", "view.capacity"}},
		{"second live owner of an accelerator, stamped",
			func(sc faultScene) pbs.Fault { return pbs.ShareFault(sc.acA, sc.b) }, true,
			[]string{"conservation.acc", "double-alloc", "view.capacity"},
			[]string{"conservation.acc", "double-alloc", "view.capacity"}},
		{"second live owner of an accelerator, raw", // both jobs claim it: the job side sees that at once
			func(sc faultScene) pbs.Fault { return pbs.ShareFault(sc.acA, sc.b) }, false,
			[]string{"conservation.acc"}, []string{"conservation.acc", "double-alloc"}},
		{"accelerator held by a job that does not list it, stamped",
			func(sc faultScene) pbs.Fault { return pbs.OwnerFault(sc.acFree, sc.a, 1) }, true,
			[]string{"conservation.acc"}, []string{"conservation.acc"}},
		{"accelerator held by a job that does not list it, raw",
			func(sc faultScene) pbs.Fault { return pbs.OwnerFault(sc.acFree, sc.a, 1) }, false,
			nil, []string{"conservation.acc"}},
		{"owner that is no job, stamped",
			func(sc faultScene) pbs.Fault { return pbs.OwnerFault(sc.cnA, ghost, 1) }, true,
			[]string{"view.agreement", "view.job-hosts"}, []string{"view.agreement", "view.job-hosts"}},
		{"owner that is no job, raw",
			func(sc faultScene) pbs.Fault { return pbs.OwnerFault(sc.cnA, ghost, 1) }, false,
			nil, []string{"view.job-hosts"}},
		{"running job lists a host it holds nothing on",
			func(sc faultScene) pbs.Fault { return pbs.PhantomHostFault(sc.a, sc.cnOther) }, false,
			[]string{"view.job-hosts"}, []string{"view.job-hosts"}},
		{"live record misfiled",
			func(sc faultScene) pbs.Fault { return pbs.MisfileFault(sc.queued) }, false,
			[]string{"jobs.index"}, []string{"jobs.index"}},
		{"terminal record misfiled", // on no active list: the sweep's to find
			func(sc faultScene) pbs.Fault { return pbs.MisfileFault(sc.done) }, false,
			nil, []string{"jobs.index"}},
		{"completed job set running again", // flagged where the state is written: no walk has to find it
			func(sc faultScene) pbs.Fault { return pbs.EdgeFault(sc.done, pbs.JobRunning) }, false,
			[]string{"protocol.edge"}, []string{"protocol.edge"}},
		{"job dropped from the submission log",
			func(sc faultScene) pbs.Fault { return pbs.DropOrderFault() }, false,
			[]string{"jobs.count"}, []string{"jobs.count"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			tb, rec := auditBed(t, 2, 4, 0)
			names := func() []string {
				var out []string
				for name := range breachNames(rec) {
					out = append(out, name)
				}
				sort.Strings(out)
				return out
			}
			runTolerant(t, tb, func(c *pbs.Client) {
				audit.NewTicker(rec, tb.s, auditRound).Start()
				sc, ok := buildFaultScene(t, tb, c)
				if !ok {
					return
				}
				tb.s.Sleep(faultAt - tb.s.Now())
				if got := names(); len(got) != 0 {
					t.Errorf("breaches before the fault: %v", got)
					return
				}
				tb.server.InjectForTest(row.fault(sc), row.touch)
				tb.s.Sleep(roundAt - 100*time.Millisecond - tb.s.Now())
				if got := names(); !slices.Equal(got, row.cycle) {
					t.Errorf("cycles after the fault flagged %q, want %q", got, row.cycle)
				}
				for _, e := range rec.Events() {
					if e.Kind == audit.KindBreach {
						if e.VT > faultAt+60*time.Millisecond {
							t.Errorf("first breach at %v, want within a 50 ms cycle of the fault at %v", e.VT, faultAt)
						}
						break
					}
				}
				tb.s.Sleep(200 * time.Millisecond)
				if got := names(); !slices.Equal(got, row.round) {
					t.Errorf("digest round at %v flagged %q, want %q", roundAt, got, row.round)
				}
			})
		})
	}
}

// buildFaultScene runs on the simulation's main actor, so it reports
// failure through its second result, not t.Fatal.
func buildFaultScene(t *testing.T, tb *testbed, c *pbs.Client) (sc faultScene, ok bool) {
	submit := func(nodes, ppn, acpn int, runFor time.Duration) string {
		id, err := c.Submit(pbs.JobSpec{
			Name: "scene", Owner: "u", Nodes: nodes, PPN: ppn, ACPN: acpn, Walltime: time.Hour,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(runFor) },
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		return id
	}
	sc.done = submit(1, 1, 0, 10*time.Millisecond)
	if _, err := c.Wait(sc.done); err != nil {
		t.Errorf("Wait: %v", err)
		return sc, false
	}
	sc.a = submit(1, 2, 1, time.Hour)
	sc.b = submit(1, 2, 1, time.Hour)
	sc.queued = submit(2, 8, 0, time.Hour) // both nodes whole: never while a and b run
	tb.s.Sleep(500 * time.Millisecond)
	a, _ := c.Stat(sc.a)
	b, _ := c.Stat(sc.b)
	q, _ := c.Stat(sc.queued)
	nodes, err := c.Nodes()
	if err != nil || a.State != pbs.JobRunning || b.State != pbs.JobRunning || q.State != pbs.JobQueued {
		t.Errorf("scene not standing: a %v, b %v, queued %v, nodes %v", a.State, b.State, q.State, err)
		return sc, false
	}
	sc.cnA = a.Hosts[0]
	sc.acA = a.AccHosts[0][0]
	for _, n := range nodes {
		switch {
		case n.Name == sc.cnA:
			sc.usedA = n.UsedCores
		case n.Type == pbs.ComputeNode:
			sc.cnOther = n.Name
		case n.Free():
			sc.acFree = n.Name
		}
	}
	return sc, true
}
