package pbs_test

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// newAuditedTestbed is newTestbed with a flight recorder installed on
// the simulation before any daemon is built.
func newAuditedTestbed(t *testing.T, nCN, nAC int) (*testbed, *audit.Recorder) {
	t.Helper()
	rec := audit.New(1 << 16)
	s := sim.New()
	s.SetAudit(rec)
	return newTestbedOn(t, s, nCN, nAC, nil), rec
}

// TestAuditCleanRunZeroBreaches pins the flight recorder's healthy
// path: a full static+dynamic job lifecycle passes every invariant
// check and leaves an exact, deterministic transition trail.
func TestAuditCleanRunZeroBreaches(t *testing.T) {
	tb, rec := newAuditedTestbed(t, 1, 4)
	var jobID string
	tb.run(t, func(c *pbs.Client) {
		id, err := c.Submit(pbs.JobSpec{
			Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				grant, err := cl.DynGet(env.JobID, env.Host, 2)
				if err != nil {
					t.Errorf("DynGet: %v", err)
					return
				}
				if err := cl.DynFree(env.JobID, grant.ClientID); err != nil {
					t.Errorf("DynFree: %v", err)
				}
			},
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		jobID = id
		if _, err := c.Wait(id); err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	if rec.Checks() == 0 {
		t.Fatal("invariant engine never ran")
	}
	if rec.Breaches() != 0 {
		t.Fatalf("%d invariant breaches on a clean run", rec.Breaches())
	}
	var trail []string
	for _, e := range rec.Events() {
		if e.Kind == audit.KindJob && e.Comp == "pbs" && e.Subj == jobID {
			trail = append(trail, e.Detail)
		}
	}
	want := []string{"submit", "queued->running", "dyn-queued", "dyn-scheduling",
		"dyn-forwarding", "dyn-granted", "dyn-free", "running->completed"}
	if len(trail) != len(want) {
		t.Fatalf("transition trail = %v, want %v", trail, want)
	}
	for i := range want {
		if trail[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (trail %v)", i, trail[i], want[i], trail)
		}
	}
	// The server's digest providers registered at construction.
	rec.CaptureDigests()
	digests := make(map[string]bool)
	for _, e := range rec.Events() {
		if e.Kind == audit.KindDigest {
			digests[e.Subj] = true
		}
	}
	if !digests["pbs.jobs"] || !digests["pbs.nodes"] {
		t.Fatalf("digests captured = %v, want pbs.jobs + pbs.nodes", digests)
	}
}

// runTolerant runs the testbed without failing on server-side
// protocol errors — fault-injection tests poison state on purpose.
func runTolerant(t *testing.T, tb *testbed, fn func(c *pbs.Client)) {
	t.Helper()
	err := tb.s.Run(func() {
		defer tb.net.Close()
		tb.server.Start()
		for _, m := range tb.moms {
			m.Start()
		}
		tb.sched.Start()
		fn(pbs.NewClient(tb.net, "front", pbs.ServerEndpoint))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func breachNames(rec *audit.Recorder) map[string]int {
	out := make(map[string]int)
	for _, e := range rec.Events() {
		if e.Kind == audit.KindBreach {
			out[e.Subj]++
		}
	}
	return out
}

// firstBreach returns the virtual time of the first breach of the
// named invariant (ok false if there is none).
func firstBreach(rec *audit.Recorder, name string) (time.Duration, bool) {
	for _, e := range rec.Events() {
		if e.Kind == audit.KindBreach && e.Subj == name {
			return e.VT, true
		}
	}
	return 0, false
}

// auditRound is the digest cadence of the fault tests: long against
// the 50 ms scheduler cycle, so "the next cycle" and "the next digest
// round" are different moments.
const auditRound = time.Second

// TestAuditDetectsDoubleAlloc forces two owners onto one accelerator.
// Through a write the server stamps, as every production write is, the
// very next scheduler cycle flags it; a raw write the cycle engine
// cannot see is flagged by the sweep of the next digest round.
func TestAuditDetectsDoubleAlloc(t *testing.T) {
	for _, touch := range []bool{true, false} {
		name := map[bool]string{true: "stamped", false: "raw"}[touch]
		t.Run(name, func(t *testing.T) {
			tb, rec := newAuditedTestbed(t, 1, 2)
			var at time.Duration
			runTolerant(t, tb, func(c *pbs.Client) {
				audit.NewTicker(rec, tb.s, auditRound).Start()
				tb.s.Sleep(330 * time.Millisecond) // past the first cycles, which examine every node
				at = tb.s.Now()
				tb.server.InjectForTest(pbs.LedgerFault("ac0", "901.ghost", 1), false)
				tb.server.InjectForTest(pbs.LedgerFault("ac0", "902.ghost", 1), touch)
				tb.s.Sleep(auditRound) // a digest round and many cycles
			})
			vt, ok := firstBreach(rec, "double-alloc")
			if !ok {
				t.Fatalf("double allocation went undetected; breaches = %v", breachNames(rec))
			}
			if touch && vt > at+60*time.Millisecond {
				t.Errorf("stamped fault at %v flagged at %v, want the next 50 ms cycle", at, vt)
			}
			if !touch && vt != auditRound {
				t.Errorf("raw fault at %v flagged at %v, want the digest round at %v", at, vt, auditRound)
			}
		})
	}
}

// TestAuditDetectsDroppedJob removes a job from the submission ledger
// and expects the job-conservation invariant to flag it at the next
// cycle: the identity is global, so no write can hide from it.
func TestAuditDetectsDroppedJob(t *testing.T) {
	tb, rec := newAuditedTestbed(t, 1, 0)
	var at time.Duration
	runTolerant(t, tb, func(c *pbs.Client) {
		audit.NewTicker(rec, tb.s, auditRound).Start()
		id, err := c.Submit(pbs.JobSpec{
			Name: "victim", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(50 * time.Millisecond) },
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := c.Wait(id); err != nil {
			t.Errorf("Wait: %v", err)
		}
		at = tb.s.Now()
		tb.server.InjectForTest(pbs.DropOrderFault(), false)
		tb.s.Sleep(200 * time.Millisecond)
	})
	vt, ok := firstBreach(rec, "jobs.count")
	if !ok {
		t.Fatalf("dropped job went undetected; breaches = %v", breachNames(rec))
	}
	if vt > at+60*time.Millisecond {
		t.Errorf("job dropped at %v flagged at %v, want the next 50 ms cycle", at, vt)
	}
}
