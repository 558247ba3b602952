package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/fifosched"
	"repro/internal/gpusim"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablations exercise design decisions the paper discusses without
// measuring: the top-priority treatment of dynamic requests
// (Section III-E), collective versus individual AC_Get
// (Section III-D), the utilization benefit of dynamic over static
// allocation (Section I), backfill, and the future-work partial
// allocation (Section VI).

// DynPriorityResult compares the latency of a dynamic request under
// queue backlog with and without the paper's top-priority policy.
type DynPriorityResult struct {
	TopPriority time.Duration
	PlainFIFO   time.Duration
}

// AblationDynPriority measures one dynamic request under a backlog of
// load unsatisfiable jobs, with the paper's policy and with the
// plain-FIFO ablation.
func AblationDynPriority(p cluster.Params, load, trials int) (DynPriorityResult, error) {
	run := func(top bool) (time.Duration, error) {
		pp := p
		pp.Maui.DynTopPriority = top
		pts, err := Fig8(pp, []int{load}, trials, cluster.Observers{})
		if err != nil {
			return 0, err
		}
		return pts[0].Total, nil
	}
	var res DynPriorityResult
	var err error
	if res.TopPriority, err = run(true); err != nil {
		return res, fmt.Errorf("core: dyn-priority ablation (top): %w", err)
	}
	if res.PlainFIFO, err = run(false); err != nil {
		return res, fmt.Errorf("core: dyn-priority ablation (fifo): %w", err)
	}
	return res, nil
}

// CollectiveResult compares a multi-node job acquiring accelerators
// collectively (one aggregated request) versus individually (one
// serialized request per compute node).
type CollectiveResult struct {
	Collective time.Duration // all nodes served via one request
	Individual time.Duration // per-node requests, serialized at the server
}

// AblationCollectiveGet measures the time until every compute node of
// a cns-node job holds acsPerCN additional accelerators.
func AblationCollectiveGet(p cluster.Params, cns, acsPerCN int) (CollectiveResult, error) {
	p.ComputeNodes = cns
	p.Accelerators = cns * acsPerCN
	measure := func(collective bool) (time.Duration, error) {
		var elapsed time.Duration
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
			s := c.Sim
			start := newSignal(s, "start")
			done := 0
			doneGate := s.NewGate("done")
			id, err := client.Submit(pbs.JobSpec{
				Name: "collget", Owner: "exp", Nodes: cns, PPN: 1, ACPN: 0, Walltime: time.Minute,
				Script: func(env *pbs.JobEnv) {
					ac, _, err := dac.Init(env)
					if err != nil {
						return
					}
					defer ac.Finalize()
					start.wait()
					if collective {
						_, _, err = ac.CollectiveGet(acsPerCN)
					} else {
						_, _, err = ac.Get(acsPerCN)
					}
					if err != nil {
						return
					}
					done++
					doneGate.Broadcast()
				},
			})
			if err != nil {
				return
			}
			s.Sleep(50 * time.Millisecond) // let all node tasks reach start.wait
			t0 := s.Now()
			start.fire()
			for done < cns {
				doneGate.Wait(nil)
			}
			elapsed = s.Now() - t0
			client.Wait(id)
		})
		return elapsed, err
	}
	var res CollectiveResult
	var err error
	if res.Collective, err = measure(true); err != nil {
		return res, fmt.Errorf("core: collective ablation: %w", err)
	}
	if res.Individual, err = measure(false); err != nil {
		return res, fmt.Errorf("core: individual ablation: %w", err)
	}
	return res, nil
}

// DynamicVsStaticResult compares phase-structured applications run
// with runtime AC_Get/AC_Free against the static baseline that must
// reserve its peak accelerator demand for the whole runtime.
type DynamicVsStaticResult struct {
	DynamicMakespan time.Duration
	StaticMakespan  time.Duration
	// Accelerator reservation integral in accelerator-seconds: lower
	// is better for the same computation.
	DynamicACSeconds float64
	StaticACSeconds  float64
	// Cluster energy over each run's makespan (paper §I: dynamic
	// provisioning as an energy lever), default power model.
	DynamicJoules float64
	StaticJoules  float64
	Rejections    int
}

// AblationDynamicVsStatic submits jobs phase-structured applications
// under both policies on the same cluster and compares makespan and
// accelerator occupancy.
func AblationDynamicVsStatic(p cluster.Params, jobs int) (DynamicVsStaticResult, error) {
	p.ComputeNodes = 2
	p.Accelerators = 4
	phases := []workload.Phase{
		{ExtraACs: 0, Compute: 150 * time.Millisecond},
		{ExtraACs: 2, Compute: 200 * time.Millisecond, Stretch: 100 * time.Millisecond},
		{ExtraACs: 0, Compute: 150 * time.Millisecond},
	}
	var res DynamicVsStaticResult

	// Static baseline: every job reserves 1 static + peak 2 = 3
	// accelerators for its whole duration.
	staticSpan, staticACs, staticJ, err := runPolicy(p, jobs, func(s *sim.Simulation, i int) pbs.JobSpec {
		return workload.StaticPeakSpec(s, fmt.Sprintf("static-%d", i), 1, phases)
	})
	if err != nil {
		return res, fmt.Errorf("core: static baseline: %w", err)
	}
	res.StaticMakespan, res.StaticACSeconds, res.StaticJoules = staticSpan, staticACs, staticJ

	// Dynamic: 1 static accelerator, grow by 2 during the middle
	// phase only.
	dynSpan, dynACs, dynJ, err := runPolicy(p, jobs, func(s *sim.Simulation, i int) pbs.JobSpec {
		return workload.DynamicSpec(s, fmt.Sprintf("dyn-%d", i), 1, phases, func(r workload.PhasedResult) {
			res.Rejections += r.Rejections
		})
	})
	if err != nil {
		return res, fmt.Errorf("core: dynamic run: %w", err)
	}
	res.DynamicMakespan, res.DynamicACSeconds, res.DynamicJoules = dynSpan, dynACs, dynJ
	return res, nil
}

// runPolicy submits jobs specs at once and reports the makespan, the
// accelerator reservation integral, and the cluster energy over the
// makespan.
func runPolicy(p cluster.Params, jobs int, mk func(s *sim.Simulation, i int) pbs.JobSpec) (time.Duration, float64, float64, error) {
	var span time.Duration
	var acSeconds float64
	var joules float64
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		t0 := c.Sim.Now()
		var ids []string
		for i := 0; i < jobs; i++ {
			id, err := client.Submit(mk(c.Sim, i))
			if err != nil {
				return
			}
			ids = append(ids, id)
		}
		var last time.Duration
		for _, id := range ids {
			info, err := client.Wait(id)
			if err != nil {
				return
			}
			if info.CompletedAt > last {
				last = info.CompletedAt
			}
			// Static accelerators: held from start to completion.
			staticHeld := float64(info.Spec.ACPN*info.Spec.Nodes) * (info.CompletedAt - info.StartedAt).Seconds()
			acSeconds += staticHeld
			for _, rec := range info.DynRecords {
				if rec.State != pbs.DynGranted {
					continue
				}
				end := rec.FreedAt
				if end == 0 {
					end = info.CompletedAt
				}
				acSeconds += float64(len(rec.Hosts)) * (end - rec.RepliedAt).Seconds()
			}
		}
		span = last - t0
		joules = c.Server.Energy(pbs.DefaultPowerModel(), span).Total()
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return span, acSeconds, joules, nil
}

// BackfillResult compares the makespan of a mixed workload with EASY
// backfill on and off.
type BackfillResult struct {
	On  time.Duration
	Off time.Duration
}

// AblationBackfill replays the same generated workload under both
// settings.
func AblationBackfill(p cluster.Params, jobs int, seed uint64) (BackfillResult, error) {
	p.ComputeNodes = 2
	p.Accelerators = 2
	run := func(backfill bool) (time.Duration, error) {
		pp := p
		pp.Maui.Backfill = backfill
		// Isolate the backfill effect: with fairshare active the
		// narrow jobs overtake the blocked wide head by priority in
		// both modes and backfill never gets exercised.
		pp.Maui.FairshareWeight = 0
		var span time.Duration
		err := cluster.Run(pp, func(c *cluster.Cluster, client *pbs.Client) {
			// Wide jobs leave two cores per node so narrow jobs can
			// backfill behind a blocked wide head; their runtime
			// spans several scheduling cycles so the blocked window
			// is actually observable.
			gen := workload.NewGenerator(c.Sim, seed, 30*time.Millisecond, []workload.Class{
				{Name: "wide", Weight: 1, Nodes: 2, PPN: 6, MinRun: 500 * time.Millisecond, MaxRun: 900 * time.Millisecond},
				{Name: "narrow", Weight: 3, Nodes: 1, PPN: 2, MinRun: 20 * time.Millisecond, MaxRun: 60 * time.Millisecond},
			})
			trace := workload.Record(gen, jobs)
			t0 := c.Sim.Now()
			ids, err := workload.Replay(c.Sim, client, trace)
			if err != nil {
				return
			}
			var last time.Duration
			for _, id := range ids {
				info, err := client.Wait(id)
				if err != nil {
					return
				}
				if info.CompletedAt > last {
					last = info.CompletedAt
				}
			}
			span = last - t0
		})
		return span, err
	}
	var res BackfillResult
	var err error
	if res.On, err = run(true); err != nil {
		return res, fmt.Errorf("core: backfill on: %w", err)
	}
	if res.Off, err = run(false); err != nil {
		return res, fmt.Errorf("core: backfill off: %w", err)
	}
	return res, nil
}

// DoubleBufferResult compares chunked offloading with and without
// double buffering — the latency-hiding technique Section I proposes
// for the host/accelerator bandwidth penalty.
type DoubleBufferResult struct {
	Sequential time.Duration
	Overlapped time.Duration
}

// chunkKernelOnce registers the fixed-cost kernel the ablation runs
// (~40 ms on the default device).
var chunkKernelOnce sync.Once

func registerChunkKernel() {
	chunkKernelOnce.Do(func() {
		gpusim.RegisterKernel("core.chunkwork", func(ctx *gpusim.KernelCtx) (gpusim.Cost, error) {
			return gpusim.Cost{FLOPs: 515e9 * 0.04}, nil
		})
	})
}

// AblationDoubleBuffer processes chunks 8 MiB chunks on one
// network-attached accelerator, strictly sequentially and with two
// device buffers so the next transfer overlaps the running kernel.
func AblationDoubleBuffer(p cluster.Params, chunks int) (DoubleBufferResult, error) {
	registerChunkKernel()
	p.ComputeNodes = 1
	p.Accelerators = 1
	const chunkBytes = 8 << 20
	run := func(overlap bool) (time.Duration, error) {
		var elapsed time.Duration
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
			id, err := client.Submit(pbs.JobSpec{
				Name: "chunks", Owner: "exp", Nodes: 1, PPN: 2, ACPN: 1, Walltime: time.Minute,
				Script: func(env *pbs.JobEnv) {
					ac, hs, err := dac.Init(env)
					if err != nil {
						return
					}
					defer ac.Finalize()
					h := hs[0]
					bufs := [2]gpusim.Ptr{}
					bufs[0], _ = ac.MemAlloc(h, chunkBytes)
					bufs[1], _ = ac.MemAlloc(h, chunkBytes)
					data := make([]byte, chunkBytes)
					start := c.Sim.Now()
					if !overlap {
						for i := 0; i < chunks; i++ {
							if err := ac.MemCpyToDevice(h, bufs[0], 0, data); err != nil {
								return
							}
							if err := ac.KernelRun(h, "core.chunkwork", [3]int{1}, [3]int{1}, bufs[0]); err != nil {
								return
							}
						}
					} else {
						grp := c.Sim.NewGroup("prefetch")
						if err := ac.MemCpyToDevice(h, bufs[0], 0, data); err != nil {
							return
						}
						for i := 0; i < chunks; i++ {
							if i+1 < chunks {
								next := bufs[(i+1)%2]
								grp.Go("prefetch", func() {
									_ = ac.MemCpyToDevice(h, next, 0, data)
								})
							}
							if err := ac.KernelRun(h, "core.chunkwork", [3]int{1}, [3]int{1}, bufs[i%2]); err != nil {
								return
							}
							grp.Wait()
						}
					}
					elapsed = c.Sim.Now() - start
				},
			})
			if err != nil {
				return
			}
			client.Wait(id)
		})
		if err == nil && elapsed == 0 {
			err = fmt.Errorf("core: double-buffer run produced no measurement")
		}
		return elapsed, err
	}
	var res DoubleBufferResult
	var err error
	if res.Sequential, err = run(false); err != nil {
		return res, fmt.Errorf("core: sequential chunks: %w", err)
	}
	if res.Overlapped, err = run(true); err != nil {
		return res, fmt.Errorf("core: overlapped chunks: %w", err)
	}
	return res, nil
}

// SchedulerPortabilityResult compares the same workload under the
// Maui scheduler and under TORQUE's basic FIFO pbs_sched — the
// paper's Section V portability claim, quantified.
type SchedulerPortabilityResult struct {
	MauiMakespan time.Duration
	FIFOMakespan time.Duration
	// Latency of one dynamic request under each scheduler, idle
	// system.
	MauiDynLatency time.Duration
	FIFODynLatency time.Duration
}

// AblationSchedulerPortability runs a mixed workload and one dynamic
// request under both schedulers.
func AblationSchedulerPortability(p cluster.Params, jobs int, seed uint64) (SchedulerPortabilityResult, error) {
	p.ComputeNodes = 2
	p.Accelerators = 3
	withFIFO := func(pp cluster.Params) cluster.Params {
		pp.MakeScheduler = func(net *netsim.Network, serverEP string) cluster.SchedulerDaemon {
			fp := fifosched.DefaultParams()
			fp.CycleInterval = pp.Maui.CycleInterval
			fp.CycleOverhead = pp.Maui.CycleOverhead
			fp.PerJobCost = pp.Maui.PerJobCost
			return fifosched.New(net, serverEP, fp)
		}
		return pp
	}

	makespan := func(pp cluster.Params) (time.Duration, error) {
		var span time.Duration
		err := cluster.Run(pp, func(c *cluster.Cluster, client *pbs.Client) {
			gen := workload.NewGenerator(c.Sim, seed, 30*time.Millisecond, []workload.Class{
				{Name: "wide", Weight: 1, Nodes: 2, PPN: 6, MinRun: 300 * time.Millisecond, MaxRun: 600 * time.Millisecond},
				{Name: "narrow", Weight: 3, Nodes: 1, PPN: 2, MinRun: 20 * time.Millisecond, MaxRun: 60 * time.Millisecond},
			})
			trace := workload.Record(gen, jobs)
			t0 := c.Sim.Now()
			ids, err := workload.Replay(c.Sim, client, trace)
			if err != nil {
				return
			}
			var last time.Duration
			for _, id := range ids {
				info, err := client.Wait(id)
				if err != nil {
					return
				}
				if info.CompletedAt > last {
					last = info.CompletedAt
				}
			}
			span = last - t0
		})
		return span, err
	}
	dynLatency := func(pp cluster.Params) (time.Duration, error) {
		var batch time.Duration
		err := cluster.Run(pp, func(c *cluster.Cluster, client *pbs.Client) {
			id, err := client.Submit(pbs.JobSpec{
				Name: "dyn", Owner: "exp", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Minute,
				Script: func(env *pbs.JobEnv) {
					ac, _, err := dac.Init(env)
					if err != nil {
						return
					}
					defer ac.Finalize()
					if clientID, _, err := ac.Get(1); err == nil {
						ac.Free(clientID)
					}
					st := ac.Stats()
					if len(st.Gets) > 0 {
						batch = st.Gets[0].Batch
					}
				},
			})
			if err != nil {
				return
			}
			client.Wait(id)
		})
		return batch, err
	}

	var res SchedulerPortabilityResult
	var err error
	if res.MauiMakespan, err = makespan(p); err != nil {
		return res, fmt.Errorf("core: maui workload: %w", err)
	}
	if res.FIFOMakespan, err = makespan(withFIFO(p)); err != nil {
		return res, fmt.Errorf("core: fifo workload: %w", err)
	}
	if res.MauiDynLatency, err = dynLatency(p); err != nil {
		return res, fmt.Errorf("core: maui dyn: %w", err)
	}
	if res.FIFODynLatency, err = dynLatency(withFIFO(p)); err != nil {
		return res, fmt.Errorf("core: fifo dyn: %w", err)
	}
	return res, nil
}

// PartialResult compares the future-work partial allocation option
// against the paper's reject-when-short behaviour.
type PartialResult struct {
	GrantedWithPartial    int
	GrantedWithoutPartial int
	RejectedWithout       bool
}

// AblationPartialAlloc requests more accelerators than are free.
func AblationPartialAlloc(p cluster.Params) (PartialResult, error) {
	p.ComputeNodes = 1
	p.Accelerators = 3
	run := func(partial bool) (int, bool, error) {
		pp := p
		pp.Maui.PartialAlloc = partial
		granted := -1
		rejected := false
		err := cluster.Run(pp, func(c *cluster.Cluster, client *pbs.Client) {
			id, err := client.Submit(pbs.JobSpec{
				Name: "partial", Owner: "exp", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Minute,
				Script: func(env *pbs.JobEnv) {
					ac, _, err := dac.Init(env)
					if err != nil {
						return
					}
					defer ac.Finalize()
					_, hs, err := ac.Get(5) // only 2 free
					if err != nil {
						rejected = true
						granted = 0
						return
					}
					granted = len(hs)
				},
			})
			if err != nil {
				return
			}
			client.Wait(id)
		})
		return granted, rejected, err
	}
	var res PartialResult
	var rej bool
	var err error
	if res.GrantedWithPartial, _, err = run(true); err != nil {
		return res, fmt.Errorf("core: partial on: %w", err)
	}
	if res.GrantedWithoutPartial, rej, err = run(false); err != nil {
		return res, fmt.Errorf("core: partial off: %w", err)
	}
	res.RejectedWithout = rej
	return res, nil
}
