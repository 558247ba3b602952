package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestDefaultShapeMatchesPaperTestbed(t *testing.T) {
	p := cluster.Default()
	// 1 CN + 6 AC + the head node running server and scheduler =
	// the paper's 8-node platform for Figures 7(a)/(b).
	if p.ComputeNodes != 1 || p.Accelerators != 6 {
		t.Fatalf("shape = %d CN, %d AC", p.ComputeNodes, p.Accelerators)
	}
	if p.Server.Processing <= 0 || p.Maui.CycleOverhead <= 0 {
		t.Fatal("cost model not populated")
	}
	if !p.Maui.DynTopPriority {
		t.Fatal("paper policy (dyn top priority) must default on")
	}
}

func TestNames(t *testing.T) {
	if cluster.CNName(2) != "cn2" || cluster.ACName(0) != "ac0" {
		t.Fatal("host naming wrong")
	}
}

func TestNewWiresEverything(t *testing.T) {
	s := sim.New()
	p := cluster.Default()
	p.ComputeNodes = 2
	p.Accelerators = 3
	c := cluster.New(s, p)
	if c.Server == nil || c.Sched == nil || c.DAC == nil || c.MPI == nil || c.Net == nil {
		t.Fatal("components missing")
	}
	if len(c.Moms) != 5 {
		t.Fatalf("moms = %d, want 5", len(c.Moms))
	}
	if got := c.ComputeNodeNames(); len(got) != 2 || got[0] != "cn0" {
		t.Fatalf("CN names = %v", got)
	}
	if got := c.AcceleratorNames(); len(got) != 3 || got[2] != "ac2" {
		t.Fatalf("AC names = %v", got)
	}
	for _, ac := range c.AcceleratorNames() {
		if c.DAC.Device(ac) == nil {
			t.Errorf("accelerator %s has no device", ac)
		}
	}
	for _, cn := range c.ComputeNodeNames() {
		if c.Moms[cn].StartDaemons == nil {
			t.Errorf("compute mom %s lacks the daemon starter", cn)
		}
	}
}

func TestRunLifecycle(t *testing.T) {
	p := cluster.Default()
	p.ComputeNodes = 1
	p.Accelerators = 1
	ran := false
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		id, err := client.Submit(pbs.JobSpec{
			Name: "smoke", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { c.Sim.Sleep(10 * time.Millisecond) },
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err := client.Wait(id)
		if err != nil || info.State != pbs.JobCompleted {
			t.Errorf("Wait: %v %v", info.State, err)
			return
		}
		ran = true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("callback never completed")
	}
}

// The moms start in AddNode order, so with heartbeats on, their senders
// spawn in the same order every run, the server serves same-instant
// heartbeats in the same order, and a run records the same spans.
func TestHeartbeatsRecordTheSameSpansEveryRun(t *testing.T) {
	run := func() []trace.Event {
		p := cluster.Default()
		p.ComputeNodes, p.Accelerators = 4, 8
		p.Mom.HeartbeatEvery = 20 * time.Millisecond
		p.Server.DeadAfter = 100 * time.Millisecond
		p.Tracer = trace.New()
		if err := cluster.Run(p, func(c *cluster.Cluster, _ *pbs.Client) {
			c.Sim.Sleep(200 * time.Millisecond)
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Tracer.Events()
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < 4; i++ {
		again := run()
		for j := range min(len(first), len(again)) {
			if !reflect.DeepEqual(first[j], again[j]) {
				t.Fatalf("run %d: event %d is %+v, first run recorded %+v", i, j, again[j], first[j])
			}
		}
		if len(again) != len(first) {
			t.Fatalf("run %d: %d events, first run recorded %d", i, len(again), len(first))
		}
	}
}
