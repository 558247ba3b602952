package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pbs"
	"repro/internal/workload"
)

// TestObjectsPerJob pins what one more batch job costs the whole stack
// in heap objects — submit, place, commit, JOIN, tasks, completion,
// release, accounting, the client's Wait — on the job shape of
// dacperf's batch workloads (half the jobs on one node, half on two, a
// quarter of a second apart). Running N jobs and 2N and dividing the
// difference by N leaves out what the cluster costs to set up. The
// placement's lists travel uncopied and names and details are joined
// when read (DESIGN.md §10): 36 objects a job, 62 before; 35 since a
// job that ends with nobody waiting is not copied for them; 31 since the
// daemons are delivery handlers and a node's job list is rebuilt in
// place; 28.6 since actors run on reused workers (the ceiling is that
// measurement + 10 %).
func TestObjectsPerJob(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	const n = 512
	mallocs := func(jobs int) uint64 {
		p := cluster.Default()
		p.ComputeNodes, p.Accelerators, p.CoresPerNode = 8, 0, 8
		p.Maui.CycleInterval = 250 * time.Millisecond
		p.Maui.CycleOverhead = 10 * time.Millisecond
		p.Maui.PerJobCost = 200 * time.Microsecond
		p.Server.Processing = time.Millisecond
		var before, after runtime.MemStats
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
			ids := make([]string, 0, jobs)
			runtime.ReadMemStats(&before)
			for i := 0; i < jobs; i++ {
				id, err := client.Submit(pbs.JobSpec{Name: "j", Owner: "u", Nodes: 1 + i%2, PPN: 1,
					Walltime: time.Second, Script: workload.Sleeper(c.Sim, 500*time.Millisecond)})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids = append(ids, id)
				c.Sim.Sleep(250 * time.Millisecond)
			}
			for _, id := range ids {
				if info, err := client.Wait(id); err != nil || info.State != pbs.JobCompleted {
					t.Errorf("Wait(%s) = %v, %v", id, info.State, err)
					return
				}
			}
			runtime.ReadMemStats(&after)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(n) // warm the process-wide pools
	perJob := float64(mallocs(2*n)-mallocs(n)) / n
	t.Logf("%.2f objects a job", perJob)
	if perJob > 31.4 {
		t.Errorf("%.2f objects a job, want at most 31.4", perJob)
	}
}
