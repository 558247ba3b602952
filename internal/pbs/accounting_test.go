package pbs_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/pbs"
)

func TestAccountingTracksBusyTime(t *testing.T) {
	tb := newTestbed(t, 1, 1, nil)
	tb.run(t, func(c *pbs.Client) {
		id, _ := c.Submit(pbs.JobSpec{
			Name: "acct", Owner: "u", Nodes: 1, PPN: 4, ACPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(200 * time.Millisecond) },
		})
		c.Wait(id)
		usage := tb.server.Usage()
		if len(usage) != 2 {
			t.Fatalf("usage entries = %d", len(usage))
		}
		var cnBusy, acBusy float64
		for _, u := range usage {
			switch u.Type {
			case pbs.ComputeNode:
				cnBusy = u.BusyCoreSeconds
			case pbs.AcceleratorNode:
				acBusy = u.BusyCoreSeconds
			}
		}
		// 4 cores for ~0.2s → ~0.8 core-seconds (plus startup slack).
		if cnBusy < 0.8 || cnBusy > 1.2 {
			t.Errorf("compute busy = %v core-seconds, want ≈0.8", cnBusy)
		}
		// 1 accelerator held for the same interval.
		if acBusy < 0.2 || acBusy > 0.3 {
			t.Errorf("accelerator busy = %v, want ≈0.2", acBusy)
		}
	})
}

func TestAccountingIdleClusterIsZero(t *testing.T) {
	tb := newTestbed(t, 2, 2, nil)
	tb.run(t, func(c *pbs.Client) {
		tb.s.Sleep(300 * time.Millisecond)
		for _, u := range tb.server.Usage() {
			if u.BusyCoreSeconds != 0 {
				t.Errorf("idle node %s busy = %v", u.Name, u.BusyCoreSeconds)
			}
		}
		cu, au := tb.server.ClusterUtilization(tb.s.Now())
		if cu != 0 || au != 0 {
			t.Errorf("idle utilization = %v, %v", cu, au)
		}
	})
}

// Usage is in name order, not in the node table's: the table registers
// the compute nodes first, and the name order puts the accelerators
// first.
func TestUsageIsInNameOrder(t *testing.T) {
	tb := newTestbed(t, 2, 2, nil)
	tb.run(t, func(c *pbs.Client) {
		var names []string
		for _, u := range tb.server.Usage() {
			names = append(names, u.Name)
		}
		if got, want := strings.Join(names, " "), "ac0 ac1 cn0 cn1"; got != want {
			t.Errorf("Usage names %q, want %q", got, want)
		}
	})
}

func TestNodeUsageUtilization(t *testing.T) {
	u := pbs.NodeUsage{Name: "cn0", Type: pbs.ComputeNode, Cores: 8, BusyCoreSeconds: 4}
	if got := u.Utilization(time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := u.Utilization(0); got != 0 {
		t.Fatalf("zero elapsed should give 0, got %v", got)
	}
	zero := pbs.NodeUsage{Cores: 0}
	if zero.Utilization(time.Second) != 0 {
		t.Fatal("zero-core node should report 0")
	}
}

func TestEnergyModel(t *testing.T) {
	tb := newTestbed(t, 1, 1, nil)
	tb.run(t, func(c *pbs.Client) {
		id, _ := c.Submit(pbs.JobSpec{
			Name: "e", Owner: "u", Nodes: 1, PPN: 4, ACPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(200 * time.Millisecond) },
		})
		c.Wait(id)
		elapsed := tb.s.Now()
		model := pbs.DefaultPowerModel()
		rep := tb.server.Energy(model, elapsed)
		sec := elapsed.Seconds()
		// Compute: at least idle for the whole window.
		if rep.ComputeJoules < model.ComputeIdleW*sec {
			t.Errorf("compute joules %v below idle floor %v", rep.ComputeJoules, model.ComputeIdleW*sec)
		}
		// Accelerator: between all-idle and all-busy.
		if rep.AccelJoules < model.AccelIdleW*sec*0.99 || rep.AccelJoules > model.AccelBusyW*sec {
			t.Errorf("accel joules %v outside [%v, %v]", rep.AccelJoules, model.AccelIdleW*sec, model.AccelBusyW*sec)
		}
		if rep.Total() != rep.ComputeJoules+rep.AccelJoules {
			t.Error("Total mismatch")
		}
	})
}

func TestEnergyZeroElapsed(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		rep := tb.server.Energy(pbs.DefaultPowerModel(), 0)
		if rep.Total() != 0 {
			t.Errorf("zero interval should cost zero, got %v", rep.Total())
		}
	})
}

func TestClusterUtilizationDuringRun(t *testing.T) {
	tb := newTestbed(t, 1, 2, nil)
	tb.run(t, func(c *pbs.Client) {
		id, _ := c.Submit(pbs.JobSpec{
			Name: "u", Owner: "u", Nodes: 1, PPN: 8, ACPN: 2, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(400 * time.Millisecond) },
		})
		c.Wait(id)
		elapsed := tb.s.Now()
		cu, au := tb.server.ClusterUtilization(elapsed)
		if cu <= 0 || cu > 1 {
			t.Errorf("compute utilization = %v", cu)
		}
		if au <= 0 || au > 1 {
			t.Errorf("accelerator utilization = %v", au)
		}
	})
}
