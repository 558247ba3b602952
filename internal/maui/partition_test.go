package maui_test

import (
	"testing"
	"time"

	"repro/internal/maui"
	"repro/internal/pbs"
)

// partitioned returns an adjust func that charges each examined job
// PerJobCost/n (Params.Partitions).
func partitioned(n int) func(*maui.Params) {
	return func(mp *maui.Params) { mp.Partitions = n }
}

// A mixed-width batch drains completely through the walk at a fraction
// of the per-job cost.
func TestPartitionedCycleCompletesWorkload(t *testing.T) {
	b := newBed(t, 8, 4, partitioned(4))
	b.run(t, func(c *pbs.Client) {
		specs := []pbs.JobSpec{
			{Name: "narrow", Owner: "alice", Nodes: 1, PPN: 4, Walltime: time.Second},
			{Name: "wide", Owner: "bob", Nodes: 2, PPN: 8, Walltime: time.Second},
			{Name: "acc", Owner: "carol", Nodes: 1, PPN: 2, ACPN: 1, Walltime: time.Second},
		}
		var ids []string
		for i := 0; i < 12; i++ {
			spec := specs[i%len(specs)]
			spec.Script = sleeper(b, 10*time.Millisecond)
			id, err := c.Submit(spec)
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
				t.Errorf("job %s state = %v, want completed", id, info.State)
			}
		}
	})
}

// The walk sees the whole node table whatever Partitions is, so a job
// the cluster can place starts at once: two long fillers take cn0 and
// cn1, and a 2-node job submitted behind them starts on cn2 and cn3
// while both still run.
func TestPartitionedWalkPlacesAJobTheClusterFits(t *testing.T) {
	b := newBed(t, 4, 0, partitioned(2))
	b.run(t, func(c *pbs.Client) {
		var fillers []string
		for i := 0; i < 2; i++ {
			id, err := c.Submit(pbs.JobSpec{
				Name: "filler", Owner: "alice", Nodes: 1, PPN: 8,
				Walltime: time.Second, Script: sleeper(b, 500*time.Millisecond),
			})
			if err != nil {
				t.Errorf("Submit filler: %v", err)
				return
			}
			fillers = append(fillers, id)
			b.s.Sleep(60 * time.Millisecond) // let a cycle place it before the next
		}
		wide, err := c.Submit(pbs.JobSpec{
			Name: "wide", Owner: "bob", Nodes: 2, PPN: 8,
			Walltime: time.Second, Script: sleeper(b, 10*time.Millisecond),
		})
		if err != nil {
			t.Errorf("Submit wide: %v", err)
			return
		}
		wideInfo, err := c.Wait(wide)
		if err != nil {
			t.Errorf("Wait(wide): %v", err)
			return
		}
		for _, id := range fillers {
			info, err := c.Wait(id)
			if err != nil {
				t.Errorf("Wait(filler %s): %v", id, err)
				return
			}
			if wideInfo.StartedAt >= info.CompletedAt {
				t.Errorf("wide job started at %v, after filler completed at %v: it waited for a filler",
					wideInfo.StartedAt, info.CompletedAt)
			}
		}
	})
}
