// Package core assembles the paper's contribution — the dynamic
// batch system for network-attached accelerator clusters — into
// experiment drivers that regenerate every measured figure of the
// evaluation (Section IV): Figure 7(a) static AC_Init decomposition,
// Figure 7(b) dynamic request decomposition, Figure 8 allocation
// under scheduler load, and Figure 9 concurrent dynamic requests.
// The ablations in ablations.go exercise the design choices the
// paper discusses but does not measure.
package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/metrics"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// signal is a sim-aware one-shot event for coordinating experiment
// actors (main vs job scripts).
type signal struct {
	gate *sim.Gate
	set  bool
}

func newSignal(s *sim.Simulation, name string) *signal {
	return &signal{gate: s.NewGate(name)}
}

func (sg *signal) fire() {
	sg.set = true
	sg.gate.Broadcast()
}

func (sg *signal) wait() {
	for !sg.set {
		sg.gate.Wait(nil)
	}
}

// figureTrials runs trials trials of each of points points of a paper
// figure. Every (point, trial) pair is an independent simulation
// seeded trial+1 under its own observer session (opened from obs,
// started with the testbed, stopped once run returns), so all of them
// fan out over the trial worker pool (one at a time when they share an
// observer left on p). run measures point x on the
// started testbed. Results come back indexed x*trials+trial, and
// seen[x] merges point x's sessions in trial order, so reductions and
// captures are identical at any parallelism level.
func figureTrials[T any](p cluster.Params, points, trials int, obs cluster.Observers, run func(x int, c *cluster.Cluster, client *pbs.Client) T) (res []T, seen []Observed, err error) {
	res = make([]T, points*trials)
	each := make([]Observed, len(res))
	err = forRuns(p, obs, len(res), func(i int) error {
		tp := p
		tp.Seed = uint64(i%trials + 1)
		ses := obs.Open()
		ses.Attach(&tp)
		err := cluster.Run(tp, func(c *cluster.Cluster, client *pbs.Client) {
			ses.Start(c.Sim)
			res[i] = run(i/trials, c, client)
			ses.Stop()
		})
		each[i] = Observe(0, ses)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	seen = make([]Observed, points)
	for x := range seen {
		seen[x] = Merge(each[x*trials : (x+1)*trials])
	}
	return res, seen, nil
}

// dacJob is the one-node job the figures submit: it opens the DAC
// library with acpn statically allocated accelerators, runs body, and
// closes the library again.
func dacJob(name string, ppn, acpn int, body func(ac *dac.AC)) pbs.JobSpec {
	return pbs.JobSpec{
		Name: name, Owner: "exp", Nodes: 1, PPN: ppn, ACPN: acpn, Walltime: time.Minute,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				return
			}
			defer ac.Finalize()
			body(ac)
		},
	}
}

// Fig7aPoint is one bar of Figure 7(a): AC_Init for x statically
// allocated accelerators, split into waiting and connect time.
type Fig7aPoint struct {
	Accelerators int
	Waiting      time.Duration
	Connect      time.Duration
	Total        time.Duration
	Obs          Observed // the bar's trials, merged in trial order
}

// Fig7a measures AC_Init completion for 1..maxACs statically
// allocated accelerators (trials per point, averaged).
func Fig7a(p cluster.Params, maxACs, trials int, obs cluster.Observers) ([]Fig7aPoint, error) {
	res, seen, err := figureTrials(p, maxACs, trials, obs, func(x int, c *cluster.Cluster, client *pbs.Client) (st dac.Stats) {
		id, err := client.Submit(dacJob("fig7a", 1, x+1, func(ac *dac.AC) { st = ac.Stats() }))
		if err == nil {
			client.Wait(id)
		}
		return st
	})
	if err != nil {
		return nil, fmt.Errorf("core: Fig7a: %w", err)
	}
	var out []Fig7aPoint
	for x := range seen {
		var wait, conn metrics.Sample
		for _, st := range res[x*trials : (x+1)*trials] {
			wait.Add(st.InitWaiting)
			conn.Add(st.InitConnect)
		}
		out = append(out, Fig7aPoint{
			Accelerators: x + 1,
			Waiting:      wait.Mean(),
			Connect:      conn.Mean(),
			Total:        wait.Mean() + conn.Mean(),
			Obs:          seen[x],
		})
	}
	return out, nil
}

// Fig7bPoint is one bar of Figure 7(b): a dynamic request for y
// accelerators, split into the batch-system share and the
// resource-management-library (MPI) share.
type Fig7bPoint struct {
	Accelerators int
	Batch        time.Duration
	MPI          time.Duration
	Total        time.Duration
	Obs          Observed // the bar's trials, merged in trial order
}

// Fig7b measures dynamic allocation of 1..maxACs accelerators on an
// otherwise idle system. Trials fan out like Fig7a's.
func Fig7b(p cluster.Params, maxACs, trials int, obs cluster.Observers) ([]Fig7bPoint, error) {
	res, seen, err := figureTrials(p, maxACs, trials, obs, func(x int, c *cluster.Cluster, client *pbs.Client) (st dac.Stats) {
		id, err := client.Submit(dacJob("fig7b", 1, 0, func(ac *dac.AC) {
			if clientID, _, err := ac.Get(x + 1); err == nil {
				ac.Free(clientID)
			}
			st = ac.Stats()
		}))
		if err == nil {
			client.Wait(id)
		}
		return st
	})
	if err != nil {
		return nil, fmt.Errorf("core: Fig7b: %w", err)
	}
	var out []Fig7bPoint
	for x := range seen {
		var batch, mpiT metrics.Sample
		for _, st := range res[x*trials : (x+1)*trials] {
			if len(st.Gets) == 1 && !st.Gets[0].Rejected {
				batch.Add(st.Gets[0].Batch)
				mpiT.Add(st.Gets[0].MPI)
			}
		}
		if batch.N() == 0 {
			return nil, fmt.Errorf("core: Fig7b y=%d: no successful dynamic request", x+1)
		}
		out = append(out, Fig7bPoint{
			Accelerators: x + 1,
			Batch:        batch.Mean(),
			MPI:          mpiT.Mean(),
			Total:        batch.Mean() + mpiT.Mean(),
			Obs:          seen[x],
		})
	}
	return out, nil
}

// Fig8Point is one bar of Figure 8: dynamic allocation of one
// accelerator while the scheduler is busy with Load other requests.
type Fig8Point struct {
	Load       int
	SchedOther time.Duration // waiting caused by Maui scheduling other requests
	Service    time.Duration // servicing the dynamic request itself
	Total      time.Duration
	Obs        Observed // the trials at this load, merged in trial order
}

// Fig8 measures the dynamic allocation latency under scheduler load.
// The background jobs request more compute nodes than exist, so they
// occupy scheduling cycles without ever touching the DAC job's
// resources, as the paper's setup requires. The unloaded baseline
// runs once, ahead of the loads; a load-0 bar is that baseline.
func Fig8(p cluster.Params, loads []int, trials int, obs cluster.Observers) ([]Fig8Point, error) {
	p.ComputeNodes = 2
	p.Accelerators = 2
	levels := []int{0}
	for _, load := range loads {
		if load != 0 {
			levels = append(levels, load)
		}
	}
	res, seen, err := figureTrials(p, len(levels), trials, obs, func(x int, c *cluster.Cluster, client *pbs.Client) (batch time.Duration) {
		s := c.Sim
		ready, goahead := newSignal(s, "ready"), newSignal(s, "go")
		id, err := client.Submit(dacJob("fig8", 1, 1, func(ac *dac.AC) {
			ready.fire()
			goahead.wait()
			if clientID, _, err := ac.Get(1); err == nil {
				ac.Free(clientID)
			}
			if st := ac.Stats(); len(st.Gets) > 0 {
				batch = st.Gets[0].Batch
			}
		}))
		if err != nil {
			return 0
		}
		ready.wait()
		if load := levels[x]; load > 0 {
			// Load the scheduler, wait until a cycle that examines the
			// whole backlog is in flight, then release the dynamic
			// request into it — the paper's "request arrives while the
			// scheduler is already working on the earlier requests".
			c0 := c.Sched.Stats().Cycles
			for _, spec := range workload.Backlog(s, load, p.ComputeNodes+1) {
				if _, err := client.Submit(spec); err != nil {
					return 0
				}
			}
			for c.Sched.Stats().Cycles < c0+2 {
				s.Sleep(5 * time.Millisecond)
			}
			s.Sleep(10 * time.Millisecond)
		}
		goahead.fire()
		client.Wait(id)
		return batch
	})
	if err != nil {
		return nil, fmt.Errorf("core: Fig8: %w", err)
	}
	means := make([]time.Duration, len(levels))
	for x, load := range levels {
		var total metrics.Sample
		for _, b := range res[x*trials : (x+1)*trials] {
			if b > 0 {
				total.Add(b)
			}
		}
		if total.N() == 0 {
			return nil, fmt.Errorf("core: Fig8 load=%d: the measurement produced no data", load)
		}
		means[x] = total.Mean()
	}
	var out []Fig8Point
	x := 0
	for _, load := range loads {
		at := 0
		if load != 0 {
			x++
			at = x
		}
		out = append(out, Fig8Point{Load: load, SchedOther: max(means[at]-means[0], 0), Service: means[0], Total: means[at], Obs: seen[at]})
	}
	return out, nil
}

// Fig9Point is one bar of Figure 9: the dynamic allocation time seen
// by one of three compute nodes requesting simultaneously.
type Fig9Point struct {
	Node  string
	Total time.Duration
	Obs   Observed // the figure's trials, on bar A: one run measures all three bars
}

// Fig9 has three distinct jobs (compute nodes A, B, C) issue one
// dynamic request each at the same time; the server's serial
// processing of dynamic requests makes later arrivals wait. Totals
// exclude the MPI operations, as in the paper.
func Fig9(p cluster.Params, trials int, obs cluster.Observers) ([]Fig9Point, error) {
	p.ComputeNodes = 3
	p.Accelerators = 6
	res, seen, err := figureTrials(p, 1, trials, obs, func(_ int, c *cluster.Cluster, client *pbs.Client) (batches [3]time.Duration) {
		s := c.Sim
		goahead := newSignal(s, "go")
		var ids []string
		var readies [3]*signal
		for i := range readies {
			readies[i] = newSignal(s, fmt.Sprintf("ready%d", i))
		}
		for i := range readies {
			id, err := client.Submit(dacJob(fmt.Sprintf("fig9-%c", 'A'+i), p.CoresPerNode, 1, func(ac *dac.AC) {
				readies[i].fire()
				goahead.wait()
				// Deterministic arrival order A < B < C.
				s.Sleep(time.Duration(i) * time.Microsecond)
				if clientID, _, err := ac.Get(1); err == nil {
					ac.Free(clientID)
				}
				if st := ac.Stats(); len(st.Gets) > 0 {
					batches[i] = st.Gets[0].Batch
				}
			}))
			if err != nil {
				return batches
			}
			ids = append(ids, id)
		}
		for _, r := range readies {
			r.wait()
		}
		goahead.fire()
		for _, id := range ids {
			client.Wait(id)
		}
		return batches
	})
	if err != nil {
		return nil, fmt.Errorf("core: Fig9: %w", err)
	}
	out := make([]Fig9Point, 3)
	for i := range out {
		var total metrics.Sample
		for _, batches := range res {
			if batches[i] > 0 {
				total.Add(batches[i])
			}
		}
		out[i] = Fig9Point{Node: string(rune('A' + i)), Total: total.Mean()}
	}
	out[0].Obs = seen[0]
	return out, nil
}

// --- table renderers ---

// Fig7aTable renders Figure 7(a)'s series.
func Fig7aTable(points []Fig7aPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 7(a): time for completion of AC_Init() [ms]",
		Headers: []string{"accelerators", "waiting", "connect", "total"},
	}
	for _, pt := range points {
		t.AddRow(fmt.Sprint(pt.Accelerators), metrics.Ms(pt.Waiting), metrics.Ms(pt.Connect), metrics.Ms(pt.Total))
	}
	return t
}

// Fig7bTable renders Figure 7(b)'s series.
func Fig7bTable(points []Fig7bPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 7(b): time for completion of a dynamic request [ms]",
		Headers: []string{"accelerators", "batch_system", "rm_library", "total"},
	}
	for _, pt := range points {
		t.AddRow(fmt.Sprint(pt.Accelerators), metrics.Ms(pt.Batch), metrics.Ms(pt.MPI), metrics.Ms(pt.Total))
	}
	return t
}

// Fig8Table renders Figure 8's series.
func Fig8Table(points []Fig8Point) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 8: dynamic allocation of one accelerator under load [ms]",
		Headers: []string{"jobs_on_load", "maui_other_requests", "service_dynamic", "total"},
	}
	for _, pt := range points {
		t.AddRow(fmt.Sprint(pt.Load), metrics.Ms(pt.SchedOther), metrics.Ms(pt.Service), metrics.Ms(pt.Total))
	}
	return t
}

// Fig9Table renders Figure 9's series.
func Fig9Table(points []Fig9Point) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 9: consecutive dynamic requests from three compute nodes [ms]",
		Headers: []string{"compute_node", "time_for_dynamic_allocation"},
	}
	for _, pt := range points {
		t.AddRow(pt.Node, metrics.Ms(pt.Total))
	}
	return t
}
