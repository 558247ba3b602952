package cluster_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/pbs"
)

// What AC_Get builds, AC_Free tears down: after a drained run of
// closed-loop AC_Get(2) / hold / AC_Free / think jobs (the shape of
// dacperf's dyn-storm workload) the fabric holds the resident daemons'
// endpoints and nothing else — no MPI process, no port, no pair state
// with a released end — whether the run served 64 requests or 4,096.
func TestDynamicDaemonLifecycleIsSymmetric(t *testing.T) {
	const (
		cns, acsPerCN = 16, 8
		reqsPerJob    = 16
		resident      = cns + cns*acsPerCN + 3 // moms, server, scheduler, front client
	)
	for _, requests := range []int{64, 4096} {
		t.Run(fmt.Sprint(requests), func(t *testing.T) {
			p := cluster.Default()
			p.ComputeNodes, p.Accelerators, p.CoresPerNode = cns, cns*acsPerCN, 8
			p.Maui.CycleInterval = 250 * time.Millisecond
			var granted atomic.Int64
			err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
				if got := c.Net.Census().Endpoints; got != resident {
					t.Errorf("resident endpoints = %d, want %d", got, resident)
					return
				}
				spec := pbs.JobSpec{
					Owner: "u", Nodes: 1, PPN: 4, Walltime: time.Hour,
					Script: func(env *pbs.JobEnv) {
						ac, _, err := dac.Init(env)
						if err != nil {
							t.Errorf("AC_Init: %v", err)
							return
						}
						for r := 0; r < reqsPerJob; r++ {
							if id, _, err := ac.Get(2); err == nil {
								c.Sim.Sleep(200 * time.Millisecond)
								if ac.Free(id) == nil {
									granted.Add(1)
								}
							}
							c.Sim.Sleep(300 * time.Millisecond)
						}
						if err := ac.Finalize(); err != nil {
							t.Errorf("AC_Finalize: %v", err)
						}
					},
				}
				ids := make([]string, requests/reqsPerJob)
				for j := range ids {
					spec.Name = fmt.Sprintf("storm-%d", j)
					id, err := client.Submit(spec)
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					ids[j] = id
				}
				for _, id := range ids {
					if info, err := client.Wait(id); err != nil || info.State != pbs.JobCompleted {
						t.Errorf("Wait(%s) = %v, %v", id, info.State, err)
						return
					}
				}
				// The last job's daemons are one fabric hop from their exit
				// message when its completion reaches the client.
				c.Sim.Sleep(time.Second)

				census := c.Net.Census()
				t.Logf("at drain: %+v", census)
				if census.Endpoints != resident {
					t.Errorf("endpoints at drain = %d, want the resident %d", census.Endpoints, resident)
				}
				if census.Dangling != 0 {
					t.Errorf("%d of %d pair states name an endpoint that is gone", census.Dangling, census.Pairs)
				}
				if limit := resident * 8; census.Pairs > limit {
					t.Errorf("pair states at drain = %d, want at most %d for %d endpoints", census.Pairs, limit, resident)
				}
				if procs, ports := c.MPI.Live(); procs != 0 || ports != 0 {
					t.Errorf("mpi runtime holds %d processes and %d ports at drain, want none", procs, ports)
				}
				if n := c.DAC.PublishedPorts(); n != 0 {
					t.Errorf("dac context holds %d published ports at drain, want none", n)
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
			if n := int(granted.Load()); n < requests*9/10 {
				t.Errorf("only %d of %d requests were granted and freed: the run did not exercise the path", n, requests)
			}
		})
	}
}
