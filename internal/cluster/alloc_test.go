package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestObjectsPerJob pins what one more batch job costs the whole stack
// in heap objects — submit, place, commit, JOIN, tasks, completion,
// release, accounting, the client's Wait — on the job shape of
// dacperf's batch workloads (half the jobs on one node, half on two, a
// quarter of a second apart). The placement's lists travel uncopied
// and names and details are joined when read (DESIGN.md §10): 36
// objects a job, 62 before; 35 since a job that ends with nobody
// waiting is not copied for them; 31 since the daemons are delivery
// handlers and a node's job list is rebuilt in place; 28.6 since actors
// run on reused workers; 24.1 since the mother superior's waits are
// records and a task spawns without a closure; 10.0 since a message is a
// record from its sender's free list (the ceiling is that measurement +
// 10 %).
func TestObjectsPerJob(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	perJob := objectsPerJob(t, cluster.Observers{})
	t.Logf("%.2f objects a job", perJob)
	if perJob > 11.1 {
		t.Errorf("%.2f objects a job, want at most 11.1", perJob)
	}
}

// TestObservedJobCostsWhatABareOneDoes: the same job shape with every
// observer attached, started and stopped around the run. A span is cut
// from the tracer's chunks and carries its own event, and accounting
// instants and scrape rows build no strings, so observing a job costs
// at most 2 objects more than running it bare (22 more before).
func TestObservedJobCostsWhatABareOneDoes(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	bare := objectsPerJob(t, cluster.Observers{})
	observed := objectsPerJob(t, cluster.Observers{Trace: true, Telemetry: true, Audit: true})
	t.Logf("%.2f objects a job observed, %.2f bare", observed, bare)
	if observed > bare+2 {
		t.Errorf("%.2f objects an observed job, want at most %.2f (bare + 2)", observed, bare+2)
	}
}

// TestObjectsPerDynRequest pins what one AC_Get(2)…AC_Free costs the
// whole stack in heap objects — pbs_dynget, Maui's top-priority answer,
// DYNJOIN, MPI_Comm_spawn of two daemons and the merge, then the
// disconnect, shrink, pbs_dynfree and DISJOIN — in the shape of
// dacperf's dyn-storm requests (two accelerators held 200 ms). An mpi
// envelope and a spawned child's records are reused or allocated once
// (DESIGN.md §9): 43.0 objects a request, 71.0 before; 25.0 since a pbs
// message and a sister mom's job record come from free lists (the
// ceiling is that measurement + 10 %).
func TestObjectsPerDynRequest(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	const n = 256
	mallocs := func(requests int) uint64 {
		p := cluster.Default()
		p.ComputeNodes, p.Accelerators, p.CoresPerNode = 1, 2, 4
		var before, after runtime.MemStats
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
			id, err := client.Submit(pbs.JobSpec{Name: "dyn", Owner: "u", Nodes: 1, PPN: 4, Walltime: time.Hour,
				Script: func(env *pbs.JobEnv) {
					ac, _, err := dac.Init(env)
					if err != nil {
						t.Errorf("AC_Init: %v", err)
						return
					}
					defer ac.Finalize()
					runtime.ReadMemStats(&before)
					for i := 0; i < requests; i++ {
						set, _, err := ac.Get(2)
						if err != nil {
							t.Errorf("AC_Get: %v", err)
							return
						}
						c.Sim.Sleep(200 * time.Millisecond)
						if err := ac.Free(set); err != nil {
							t.Errorf("AC_Free: %v", err)
							return
						}
						c.Sim.Sleep(time.Second)
					}
					runtime.ReadMemStats(&after)
				}})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if info, err := client.Wait(id); err != nil || info.State != pbs.JobCompleted {
				t.Errorf("Wait(%s) = %v, %v", id, info.State, err)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(n) // warm the process-wide pools
	perRequest := float64(mallocs(2*n)-mallocs(n)) / n
	t.Logf("%.2f objects a dynamic request", perRequest)
	if perRequest > 27.6 {
		t.Errorf("%.2f objects a dynamic request, want at most 27.6", perRequest)
	}
}

// objectsPerJob runs N jobs and 2N under the observers obs and divides
// the difference in heap objects by N, which leaves out what the
// cluster and its observers cost to set up.
func objectsPerJob(t *testing.T, obs cluster.Observers) float64 {
	const n = 512
	mallocs := func(jobs int) uint64 {
		p := cluster.Default()
		p.ComputeNodes, p.Accelerators, p.CoresPerNode = 8, 0, 8
		p.Maui.CycleInterval = 250 * time.Millisecond
		p.Maui.CycleOverhead = 10 * time.Millisecond
		p.Maui.PerJobCost = 200 * time.Microsecond
		p.Server.Processing = time.Millisecond
		sess := obs.Open()
		sess.Attach(&p)
		var before, after runtime.MemStats
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
			sess.Start(c.Sim)
			defer sess.Stop()
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
	return float64(mallocs(2*n)-mallocs(n)) / n
}

// TestStartCostsNothingPerIdleHost: starting a cluster allocates nothing
// per accelerator host. A mom's station holds the mom itself, its
// handler is a function and an argument, and its task and join
// functions are built by the first task or job start it serves, which
// an accelerator's mom never does: the objects Cluster.Start allocates
// do not grow when the accelerators double (5 a mom before).
func TestStartCostsNothingPerIdleHost(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	const n = 512
	start := func(acs int) uint64 {
		p := cluster.Default()
		p.ComputeNodes, p.Accelerators = 16, acs
		s := sim.Acquire()
		defer s.Release()
		c := cluster.New(s, p)
		var before, after runtime.MemStats
		if err := s.Run(func() {
			defer c.Close()
			runtime.ReadMemStats(&before)
			c.Start()
			runtime.ReadMemStats(&after)
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return after.Mallocs - before.Mallocs
	}
	start(n) // warm the process-wide pools
	small, large := start(n), start(2*n)
	t.Logf("Start: %d objects with %d accelerators, %d with %d", small, n, large, 2*n)
	if large > small {
		t.Errorf("Start allocated %d more objects for %d more accelerators, want none", large-small, n)
	}
}

// TestBuildObjectsPerHost pins what one more host costs cluster.New in
// heap objects, from the difference between N and 2N hosts in
// batch-wide's shape (8 accelerators a compute node): the moms, the
// server's node records, the endpoints and the devices are each one
// block, and an endpoint carries its gate, and a device's digest is
// registered only under a recorder: 3.0 objects a host (its name and its
// mom's endpoint name), 4.0 with a gate of its own, 12.6 before; the
// ceiling is the measurement + 10 %.
func TestBuildObjectsPerHost(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	const cns = 128
	build := func(cns int) uint64 {
		p := cluster.Default()
		p.ComputeNodes, p.Accelerators = cns, 8*cns
		s := sim.Acquire()
		defer s.Release()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cluster.New(s, p)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	build(cns) // warm the process-wide pools
	perHost := float64(build(2*cns)-build(cns)) / (9 * cns)
	t.Logf("%.2f objects a host", perHost)
	if perHost > 3.4 {
		t.Errorf("%.2f objects a host, want at most 3.4", perHost)
	}
}
