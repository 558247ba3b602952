package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pbs"
	"repro/internal/sim"
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
