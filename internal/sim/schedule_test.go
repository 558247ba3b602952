package sim_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// The kernel's one scheduling rule, tested from the outside: while Run
// is live at most one actor holds the running slot, so whatever the Go
// scheduler does between two actors cannot change what a run records.
// Each seed perturbs the host schedule differently — a Gosched and a
// seeded spin as every actor starts and after every wake — and a 2-CN /
// 3-AC cluster behind the sharded server runs a job with two concurrent
// pbs_dynget calls beside a job that is deleted while it runs. Every
// seed must leave the same audit recording, byte for byte.
func TestOneActorAtATimeRecordsTheSameUnderAnyHostSchedule(t *testing.T) {
	var over, checks atomic.Int64
	check := func(running int) {
		checks.Add(1)
		if running > 1 {
			over.Add(1)
		}
	}
	var first []byte
	for seed := uint64(1); seed <= 20; seed++ {
		var n atomic.Uint64
		restore := sim.SetHooksForTest(check, func() {
			runtime.Gosched()
			x := seed*0x9e3779b97f4a7c15 ^ n.Add(1)*0xbf58476d1ce4e5b9
			spin := uint64(0)
			for i := uint64(0); i < (x>>40)%4096; i++ {
				spin += i
			}
			spinSink.Store(spin)
		})
		got := recordDynScenario(t)
		restore()
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("seed %d recorded something else than seed 1:\n%s\nvs\n%s", seed, got, first)
		}
	}
	if checks.Load() == 0 {
		t.Fatal("the slot check never ran")
	}
	if n := over.Load(); n != 0 {
		t.Fatalf("%d of %d parks, wakes and releases saw more than one running actor", n, checks.Load())
	}
}

// spinSink keeps the compiler from dropping the injected spin.
var spinSink atomic.Uint64

func recordDynScenario(t *testing.T) []byte {
	t.Helper()
	rec := audit.New(1 << 12)
	p := cluster.Default()
	p.ComputeNodes, p.Accelerators = 2, 3
	p.Server.Shards = 4
	p.Audit = rec
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		grower, err := client.Submit(pbs.JobSpec{Name: "grow", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Minute,
			Script: func(env *pbs.JobEnv) {
				g := c.Sim.NewGroup("dynget")
				for i := 0; i < 2; i++ {
					g.Go("dynget", func() {
						cl := pbs.NewClient(c.Net, env.Host+"/dyn", env.ServerEP)
						defer cl.Close()
						grant, err := cl.DynGet(env.JobID, env.Host, 1)
						if err != nil {
							t.Errorf("DynGet: %v", err)
							return
						}
						c.Sim.Sleep(20 * time.Millisecond)
						if err := cl.DynFree(env.JobID, grant.ClientID); err != nil {
							t.Errorf("DynFree: %v", err)
						}
					})
				}
				g.Wait()
			}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		victim, err := client.Submit(pbs.JobSpec{Name: "victim", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Minute,
			Script: func(env *pbs.JobEnv) { c.Sim.Sleep(time.Minute) }})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		c.Sim.Sleep(2 * time.Second)
		if err := client.Delete(victim); err != nil {
			t.Errorf("Delete: %v", err)
		}
		for _, id := range []string{grower, victim} {
			if _, err := client.Wait(id); err != nil {
				t.Errorf("Wait %s: %v", id, err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rec.Breaches() != 0 || rec.Dropped() != 0 {
		t.Fatalf("%d breaches, %d dropped events", rec.Breaches(), rec.Dropped())
	}
	out, err := json.Marshal(rec.Events())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return out
}
