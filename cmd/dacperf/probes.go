package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/kernelbench"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Probes are isolated, timed calls into one layer's public functions:
// what a layer costs with nothing else running. Each probe measures
// at least probeMin of work per sample and reports the median of
// probeSamples samples.
const (
	probeMin     = 500 * time.Millisecond
	probeSamples = 3
)

// pass is one timed batch of a probe: ops operations took spent.
type pass func() (ops int, spent time.Duration, err error)

// probe repeats p until a sample holds probeMin of measured time and
// reports time per op in the unit that div nanoseconds make up.
func probe(name, unit string, div float64, p pass) (Metric, error) {
	vs := make([]float64, 0, probeSamples)
	for len(vs) < probeSamples {
		var ops int
		var spent time.Duration
		for spent < probeMin {
			n, d, err := p()
			if err != nil {
				return Metric{}, fmt.Errorf("%s: %w", name, err)
			}
			ops, spent = ops+n, spent+d
		}
		vs = append(vs, float64(spent.Nanoseconds())/div/float64(ops))
	}
	return sampled(name, unit, vs), nil
}

// benchProbe reuses a kernelbench loop through testing.Benchmark,
// which sizes its own run to about a second.
func benchProbe(name, unit string, div float64, fn func(*testing.B)) (Metric, error) {
	vs := make([]float64, 0, probeSamples)
	for len(vs) < probeSamples {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			return Metric{}, fmt.Errorf("%s: benchmark failed", name)
		}
		vs = append(vs, float64(r.T.Nanoseconds())/div/float64(r.N))
	}
	return sampled(name, unit, vs), nil
}

const (
	perNs = 1
	perUs = 1e3
	perMs = 1e6
)

// runProbes runs every probe once, in catalogue order. A probe whose
// calls return an error fails the run.
func runProbes() []Metric {
	var out []Metric
	add := func(m Metric, err error) {
		if err != nil {
			fatal(1, "dacperf: probe %v", err)
		}
		out = append(out, m)
	}
	swf := genSWF(sim.NewRNG(1), 16384, 1920*time.Second)
	add(probe("workload.parse_us_per_job", "us", perUs, func() (int, time.Duration, error) {
		t := time.Now()
		entries, err := workload.ParseSWF(strings.NewReader(swf), coresPerCN)
		return len(entries), time.Since(t), err
	}))
	add(benchProbe("workload.arrivals_ns_per_job", "ns", perNs, kernelbench.ArrivalsNext))

	for _, n := range []int{64, 1024} {
		add(probe(fmt.Sprintf("cluster.build_ms.n%d", n), "ms", perMs, func() (int, time.Duration, error) {
			return clusterBuild(n)
		}))
	}

	add(benchProbe("sim.dispatch_ns", "ns", perNs, kernelbench.EventDispatch))
	add(benchProbe("sim.sleepwake_ns", "ns", perNs, kernelbench.SleepWake))
	add(probe("sim.gate_ns", "ns", perNs, gateHandoff))
	add(benchProbe("netsim.hop_ns", "ns", perNs, kernelbench.NetsimHop))

	for _, n := range []int{64, 1024} {
		ms, err := serverProbes(n)
		if err != nil {
			fatal(1, "dacperf: probe pbs n%d: %v", n, err)
		}
		out = append(out, ms...)
	}
	for _, n := range []int{64, 1024} {
		ms, err := cycleProbe(n)
		if err != nil {
			fatal(1, "dacperf: probe maui n%d: %v", n, err)
		}
		out = append(out, ms...)
	}

	add(probe("dac.getfree_us", "us", perUs, getFree))
	add(probe("mpi.spawn_merge_us", "us", perUs, spawnMerge))

	add(benchProbe("telemetry.record_ns", "ns", perNs, kernelbench.HistogramRecord))
	add(benchProbe("telemetry.scrape_us", "us", perUs, kernelbench.RegistryScrape))
	add(benchProbe("audit.record_ns", "ns", perNs, kernelbench.AuditRecordEnabled))
	add(probe("trace.span_ns", "ns", perNs, traceSpans))
	return out
}

// clusterBuild times cluster.New plus Start on an n-node machine of
// the benchmark's shape; the teardown that follows is not timed.
func clusterBuild(n int) (int, time.Duration, error) {
	p := workloadDef{cns: n}.params()
	s := sim.Acquire()
	defer s.Release()
	t := time.Now()
	c := cluster.New(s, p)
	var spent time.Duration
	err := s.Run(func() {
		c.Start()
		spent = time.Since(t)
		c.Close()
	})
	return 1, spent, err
}

// gateHandoff times one Gate round trip between two actors: signal
// the peer, wait for its signal back.
func gateHandoff() (int, time.Duration, error) {
	const rounds = 50000
	s := sim.Acquire()
	defer s.Release()
	var spent time.Duration
	err := s.Run(func() {
		var mu sync.Mutex
		turn := 0 // 0: main's move, 1: peer's
		ping, pong := s.NewGate("probe/ping"), s.NewGate("probe/pong")
		s.Go("probe/peer", func() {
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < rounds; i++ {
				for turn != 1 {
					ping.Wait(&mu)
				}
				turn = 0
				pong.Signal()
			}
		})
		t := time.Now()
		mu.Lock()
		for i := 0; i < rounds; i++ {
			turn = 1
			ping.Signal()
			for turn != 0 {
				pong.Wait(&mu)
			}
		}
		mu.Unlock()
		spent = time.Since(t)
	})
	return 2 * rounds, spent, err
}

// idleScheduler is the no-op scheduler daemon of the pbs probes: it
// drains the server's kicks and never places a job, so submitted jobs
// stay queued and the probes see the server alone.
type idleScheduler struct {
	sim *sim.Simulation
	ep  *netsim.Endpoint
}

func (d *idleScheduler) Endpoint() string { return d.ep.Name() }

func (d *idleScheduler) Start() {
	d.sim.Go("probe/idle-sched", func() {
		for {
			m, err := d.ep.Recv()
			m.Release()
			if err != nil {
				return
			}
		}
	})
}

// serverProbes times IFL calls against an idle n-node cluster: qsub,
// pbsnodes (the node-view build) and, at 1024 nodes, qstat.
func serverProbes(n int) ([]Metric, error) {
	const calls = 200
	p := workloadDef{cns: n}.params()
	p.MakeScheduler = func(net *netsim.Network, _ string) cluster.SchedulerDaemon {
		return &idleScheduler{sim: net.Sim(), ep: net.Endpoint("probe/idle-sched")}
	}
	names := []string{"pbs.submit_us", "pbs.nodes_us"}
	if n == 1024 {
		names = append(names, "pbs.stat_us")
	}
	vs := make(map[string][]float64)
	for sample := 0; sample < probeSamples; sample++ {
		var callErr error
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
			timeCalls := func(name string, call func() error) {
				var ops int
				var spent time.Duration
				for spent < probeMin && callErr == nil {
					t := time.Now()
					for i := 0; i < calls && callErr == nil; i++ {
						callErr = call()
					}
					ops, spent = ops+calls, spent+time.Since(t)
				}
				vs[name] = append(vs[name], float64(spent.Nanoseconds())/perUs/float64(ops))
			}
			spec := workload.Backlog(c.Sim, 1, 1)[0]
			var lastID string
			timeCalls("pbs.submit_us", func() (err error) {
				lastID, err = client.Submit(spec)
				return err
			})
			timeCalls("pbs.nodes_us", func() error {
				_, err := client.Nodes()
				return err
			})
			if n == 1024 {
				timeCalls("pbs.stat_us", func() error {
					_, err := client.Stat(lastID)
					return err
				})
			}
		})
		if err = errors.Join(err, callErr); err != nil {
			return nil, err
		}
	}
	var out []Metric
	for _, name := range names {
		out = append(out, sampled(fmt.Sprintf("%s.n%d", name, n), "us", vs[name]))
	}
	return out, nil
}

// cycleProbe times 200 single-stepped Maui cycles over a queue of 256
// jobs that can never be placed (one node wider than the machine), so
// every cycle pays the full sched-info fetch, priority pass and
// placement attempt without changing the state it runs against.
func cycleProbe(n int) ([]Metric, error) {
	const cycles, backlog = 200, 256
	p := workloadDef{cns: n}.params()
	var p50s, p95s []float64
	for sample := 0; sample < probeSamples; sample++ {
		s := sim.Acquire()
		c := cluster.New(s, p)
		var submitErr error
		err := s.Run(func() {
			defer c.Close()
			// Everything but the scheduler actor: the probe steps the
			// cycle itself.
			c.Server.Start()
			for _, name := range append(c.ComputeNodeNames(), c.AcceleratorNames()...) {
				c.Moms[name].Start()
			}
			client := c.Client("front")
			for _, spec := range workload.Backlog(s, backlog, n+1) {
				if _, err := client.Submit(spec); err != nil {
					submitErr = err
					return
				}
			}
			for i := 0; i < 20; i++ { // fill the scheduler's scratch pools
				c.Sched.RunCycleOnce()
			}
			took := make([]float64, cycles)
			for i := range took {
				t := time.Now()
				c.Sched.RunCycleOnce()
				took[i] = float64(time.Since(t).Nanoseconds()) / perUs
			}
			sort.Float64s(took)
			p50s = append(p50s, took[cycles/2])
			p95s = append(p95s, took[cycles*95/100])
		})
		s.Release()
		if err = errors.Join(err, submitErr); err != nil {
			return nil, err
		}
	}
	return []Metric{
		sampled(fmt.Sprintf("maui.cycle_us_p50.n%d", n), "us", p50s),
		sampled(fmt.Sprintf("maui.cycle_us_p95.n%d", n), "us", p95s),
	}, nil
}

// getFree times a closed loop of AC_Get(1)/AC_Free from one job on
// the paper's testbed, cluster.Default().
func getFree() (int, time.Duration, error) {
	const rounds = 500
	var spent time.Duration
	var loopErr error
	err := cluster.Run(cluster.Default(), func(c *cluster.Cluster, client *pbs.Client) {
		id, err := client.Submit(pbs.JobSpec{
			Name: "probe", Owner: "probe", Nodes: 1, PPN: 1, Walltime: time.Hour,
			Script: func(env *pbs.JobEnv) {
				ac, _, err := dac.Init(env)
				if err != nil {
					loopErr = err
					return
				}
				t := time.Now()
				for i := 0; i < rounds && loopErr == nil; i++ {
					var set int
					if set, _, loopErr = ac.Get(1); loopErr == nil {
						loopErr = ac.Free(set)
					}
				}
				spent = time.Since(t)
				loopErr = errors.Join(loopErr, ac.Finalize())
			},
		})
		if err == nil {
			_, err = client.Wait(id)
		}
		loopErr = errors.Join(loopErr, err)
	})
	return rounds, spent, errors.Join(err, loopErr)
}

// spawnMerge times MPI_Comm_spawn of two daemons, the intercomm merge
// and the disconnect on a bare mpi.Runtime over netsim, without the
// batch system: the resource-management-library share of an AC_Get.
func spawnMerge() (int, time.Duration, error) {
	const rounds = 200
	s := sim.Acquire()
	defer s.Release()
	var spent time.Duration
	var loopErr error
	err := s.Run(func() {
		p := cluster.Default()
		net := netsim.New(s, netsim.LinkParams{Latency: p.NetLatency, BandwidthBps: p.NetBandwidthBps})
		defer net.Close()
		rt := mpi.NewRuntime(net, p.MPI)
		rt.Register("daemon", func(child *mpi.Proc, _ []string) {
			if intra, err := child.Parent().Merge(true); err == nil {
				_ = intra.Disconnect() // the parent's side reports a failed teardown
			}
		})
		app := rt.Attach("cn0")
		t := time.Now()
		for i := 0; i < rounds && loopErr == nil; i++ {
			inter, err := app.Spawn("daemon", nil, []string{"ac0", "ac1"})
			if err != nil {
				loopErr = err
				break
			}
			intra, err := inter.Merge(false)
			if err != nil {
				loopErr = err
				break
			}
			loopErr = intra.Disconnect()
		}
		spent = time.Since(t)
	})
	return rounds, spent, errors.Join(err, loopErr)
}

// traceSpans times opening and ending one span on a default tracer.
// Each pass uses a fresh tracer so its unbounded event log is dropped
// between passes.
func traceSpans() (int, time.Duration, error) {
	const spans = 1 << 16
	trc := trace.New()
	t := time.Now()
	for i := 0; i < spans; i++ {
		trc.Start("probe", "span").End()
	}
	return spans, time.Since(t), nil
}
