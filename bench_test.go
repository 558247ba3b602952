// Benchmarks regenerating every figure of the paper's evaluation
// (Section IV). Each benchmark runs the full experiment per
// iteration and reports the figure's key series values as custom
// metrics in *virtual* milliseconds (suffix _vms) — those are the
// numbers to compare against the paper; the ns/op wall time measures
// the simulator itself. EXPERIMENTS.md records paper-vs-measured for
// every series.
package repro_test

import (
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/kernelbench"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func vms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFig7aStaticInit regenerates Figure 7(a): AC_Init()
// completion for 1..6 statically allocated accelerators.
func BenchmarkFig7aStaticInit(b *testing.B) {
	var pts []repro.Fig7aPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = repro.Fig7a(repro.DefaultParams(), 6, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vms(pts[0].Total), "total(x=1)_vms")
	b.ReportMetric(vms(pts[5].Total), "total(x=6)_vms")
	b.ReportMetric(vms(pts[5].Waiting), "waiting(x=6)_vms")
	b.ReportMetric(vms(pts[5].Connect), "connect(x=6)_vms")
}

// BenchmarkFig7bDynamicGet regenerates Figure 7(b): dynamic request
// completion for 1..6 accelerators.
func BenchmarkFig7bDynamicGet(b *testing.B) {
	var pts []repro.Fig7bPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = repro.Fig7b(repro.DefaultParams(), 6, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vms(pts[0].Total), "total(y=1)_vms")
	b.ReportMetric(vms(pts[5].Total), "total(y=6)_vms")
	b.ReportMetric(vms(pts[5].Batch), "batch(y=6)_vms")
	b.ReportMetric(vms(pts[5].MPI), "mpi(y=6)_vms")
}

// BenchmarkFig8LoadedScheduler regenerates Figure 8: dynamic
// allocation of one accelerator with 0/16/20 other requests loading
// the scheduler.
func BenchmarkFig8LoadedScheduler(b *testing.B) {
	var pts []repro.Fig8Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = repro.Fig8(repro.DefaultParams(), []int{0, 16, 20}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vms(pts[0].Total), "total(load=0)_vms")
	b.ReportMetric(vms(pts[1].Total), "total(load=16)_vms")
	b.ReportMetric(vms(pts[2].Total), "total(load=20)_vms")
}

// BenchmarkFig9ConcurrentRequests regenerates Figure 9: simultaneous
// dynamic requests from compute nodes A, B, C serialized by the
// server.
func BenchmarkFig9ConcurrentRequests(b *testing.B) {
	var pts []repro.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = repro.Fig9(repro.DefaultParams(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vms(pts[0].Total), "A_vms")
	b.ReportMetric(vms(pts[1].Total), "B_vms")
	b.ReportMetric(vms(pts[2].Total), "C_vms")
}

// BenchmarkAblationDynPriority compares the paper's top-priority
// policy for dynamic requests against plain FIFO under backlog.
func BenchmarkAblationDynPriority(b *testing.B) {
	var res struct{ top, fifo time.Duration }
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationDynPriority(repro.DefaultParams(), 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		res.top, res.fifo = r.TopPriority, r.PlainFIFO
	}
	b.ReportMetric(vms(res.top), "top_priority_vms")
	b.ReportMetric(vms(res.fifo), "plain_fifo_vms")
}

// BenchmarkAblationCollectiveGet compares one aggregated AC_Get
// against per-node serialized requests on a 3-node job.
func BenchmarkAblationCollectiveGet(b *testing.B) {
	var col, ind time.Duration
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationCollectiveGet(repro.DefaultParams(), 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		col, ind = r.Collective, r.Individual
	}
	b.ReportMetric(vms(col), "collective_vms")
	b.ReportMetric(vms(ind), "individual_vms")
}

// BenchmarkAblationDynamicVsStatic compares makespan and accelerator
// occupancy of phased applications under dynamic allocation versus
// the static-peak baseline.
func BenchmarkAblationDynamicVsStatic(b *testing.B) {
	var dynMs, statMs time.Duration
	var dynAC, statAC float64
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationDynamicVsStatic(repro.DefaultParams(), 4)
		if err != nil {
			b.Fatal(err)
		}
		dynMs, statMs = r.DynamicMakespan, r.StaticMakespan
		dynAC, statAC = r.DynamicACSeconds, r.StaticACSeconds
	}
	b.ReportMetric(vms(dynMs), "dynamic_makespan_vms")
	b.ReportMetric(vms(statMs), "static_makespan_vms")
	b.ReportMetric(dynAC, "dynamic_AC_seconds")
	b.ReportMetric(statAC, "static_AC_seconds")
}

// BenchmarkAblationBackfill compares mixed-workload makespan with
// EASY backfill on and off.
func BenchmarkAblationBackfill(b *testing.B) {
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationBackfill(repro.DefaultParams(), 16, 6)
		if err != nil {
			b.Fatal(err)
		}
		on, off = r.On, r.Off
	}
	b.ReportMetric(vms(on), "backfill_on_vms")
	b.ReportMetric(vms(off), "backfill_off_vms")
}

// BenchmarkAblationDoubleBuffer compares chunked offloading with and
// without double buffering (the latency-hiding technique of the
// paper's Section I).
func BenchmarkAblationDoubleBuffer(b *testing.B) {
	var seq, ovl time.Duration
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationDoubleBuffer(repro.DefaultParams(), 8)
		if err != nil {
			b.Fatal(err)
		}
		seq, ovl = r.Sequential, r.Overlapped
	}
	b.ReportMetric(vms(seq), "sequential_vms")
	b.ReportMetric(vms(ovl), "double_buffered_vms")
}

// BenchmarkAblationPartialAlloc measures the future-work partial
// allocation option.
func BenchmarkAblationPartialAlloc(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationPartialAlloc(repro.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		with, without = r.GrantedWithPartial, r.GrantedWithoutPartial
	}
	b.ReportMetric(float64(with), "granted_with_partial")
	b.ReportMetric(float64(without), "granted_without")
}

// BenchmarkAblationSchedulerPortability compares a workload and a
// dynamic request under Maui and under TORQUE's basic FIFO pbs_sched
// (the paper's Section V portability claim).
func BenchmarkAblationSchedulerPortability(b *testing.B) {
	var mMk, fMk, mDyn, fDyn time.Duration
	for i := 0; i < b.N; i++ {
		r, err := repro.AblationSchedulerPortability(repro.DefaultParams(), 12, 6)
		if err != nil {
			b.Fatal(err)
		}
		mMk, fMk, mDyn, fDyn = r.MauiMakespan, r.FIFOMakespan, r.MauiDynLatency, r.FIFODynLatency
	}
	b.ReportMetric(vms(mMk), "maui_makespan_vms")
	b.ReportMetric(vms(fMk), "fifo_makespan_vms")
	b.ReportMetric(vms(mDyn), "maui_dyn_vms")
	b.ReportMetric(vms(fDyn), "fifo_dyn_vms")
}

// --- simulator micro-benchmarks (real wall time) ---

// The kernel hot-path benchmarks live in internal/kernelbench so
// cmd/dacbench can also run them via testing.Benchmark and record
// their allocs/op as regression-gated series.

// BenchmarkEventDispatch measures closure-free timer dispatch
// (AfterArg schedule + pop + callback).
func BenchmarkEventDispatch(b *testing.B) { kernelbench.EventDispatch(b) }

// BenchmarkSleepWake measures a lone actor's Sleep: the in-place clock
// advance, no park.
func BenchmarkSleepWake(b *testing.B) { kernelbench.SleepWake(b) }

// BenchmarkSleepPark measures the park/dispatch/wake round trip of two
// actors whose sleeps interleave, so each one parks.
func BenchmarkSleepPark(b *testing.B) { kernelbench.SleepPark(b) }

// BenchmarkGatePingPong measures the running slot's hand-off between
// two actors alternating through two gates. One iteration is two
// hand-offs; ns/handoff reports one. It is no dacbench series:
// internal/sim's TestGateWaitSignalZeroAlloc pins the path at 0
// allocs/op.
func BenchmarkGatePingPong(b *testing.B) {
	s := sim.New()
	if err := s.Run(func() {
		gates := [2]*sim.Gate{s.NewGate("bench/ping"), s.NewGate("bench/pong")}
		n := 0 // hand-offs so far: actor i runs while n%2 == i
		pass := func(i int) {
			n++
			gates[1-i].Signal()
			for n%2 != i {
				gates[i].Wait(nil)
			}
		}
		s.Go("bench/partner", func() {
			for n%2 != 1 {
				gates[1].Wait(nil)
			}
			for {
				pass(1)
			}
		})
		for i := 0; i < 16; i++ { // warm the waiter pool and ready list
			pass(0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/handoff")
	}); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkNetsimHop measures one arena-backed fabric hop
// (send → deliver → recv → release).
func BenchmarkNetsimHop(b *testing.B) { kernelbench.NetsimHop(b) }

// BenchmarkHistogramRecord measures one streaming-histogram
// observation on the telemetry hot path (pinned at 0 allocs/op).
func BenchmarkHistogramRecord(b *testing.B) { kernelbench.HistogramRecord(b) }

// BenchmarkRegistryScrape measures one windowed scrape cycle over a
// representative telemetry instrument mix.
func BenchmarkRegistryScrape(b *testing.B) { kernelbench.RegistryScrape(b) }

// BenchmarkArrivalsNext measures one open-loop arrival draw (gap +
// weighted shape pick) on the service admission path.
func BenchmarkArrivalsNext(b *testing.B) { kernelbench.ArrivalsNext(b) }

// BenchmarkAuditRecordDisabled measures the recorder-disabled audit
// hot path (nil recorder, pinned at 0 allocs/op).
func BenchmarkAuditRecordDisabled(b *testing.B) { kernelbench.AuditRecordDisabled(b) }

// BenchmarkAuditRecordEnabled measures one in-place ring-slot write
// on the enabled audit hot path.
func BenchmarkAuditRecordEnabled(b *testing.B) { kernelbench.AuditRecordEnabled(b) }

// BenchmarkSchedCycleIdle1024 measures one Maui iteration (SchedInfo
// round + pool update) on an idle 1024-CN cluster (0 allocs/op).
func BenchmarkSchedCycleIdle1024(b *testing.B) { kernelbench.SchedCycleIdle1024(b) }

// BenchmarkSchedCycleChurn1024 measures the same iteration after 16
// nodes changed state.
func BenchmarkSchedCycleChurn1024(b *testing.B) { kernelbench.SchedCycleChurn1024(b) }

// BenchmarkSimSleepEvents measures the event-queue throughput of the
// virtual-time kernel.
func BenchmarkSimSleepEvents(b *testing.B) {
	s := sim.New()
	err := s.Run(func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Microsecond)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNetsimMessage measures fabric send+recv round trips.
func BenchmarkNetsimMessage(b *testing.B) {
	s := sim.New()
	n := netsim.New(s, netsim.LinkParams{Latency: time.Microsecond})
	err := s.Run(func() {
		defer n.Close()
		a, c := n.Endpoint("a"), n.Endpoint("c")
		for i := 0; i < b.N; i++ {
			if err := a.Send("c", "t", i, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPIPingPong measures point-to-point messaging through the
// MPI layer.
func BenchmarkMPIPingPong(b *testing.B) {
	s := sim.New()
	n := netsim.New(s, netsim.LinkParams{Latency: time.Microsecond})
	rt := mpi.NewRuntime(n, mpi.Config{})
	err := s.Run(func() {
		defer n.Close()
		done := s.NewGate("done")
		var finished bool
		rt.LaunchWorld([]string{"h0", "h1"}, "pp", func(p *mpi.Proc) {
			w := p.World()
			if w.Rank() == 0 {
				for i := 0; i < b.N; i++ {
					if err := w.Send(1, 1, i, 0); err != nil {
						return
					}
					if _, err := w.Recv(1, 2); err != nil {
						return
					}
				}
				finished = true
				done.Broadcast()
			} else {
				for i := 0; i < b.N; i++ {
					if _, err := w.Recv(0, 1); err != nil {
						return
					}
					if err := w.Send(0, 2, i, 0); err != nil {
						return
					}
				}
			}
		})
		var mu sync.Mutex
		mu.Lock()
		for !finished {
			done.Wait(&mu)
		}
		mu.Unlock()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClusterJobTurnaround measures simulating one complete
// batch job through submit, schedule, run, and completion.
func BenchmarkClusterJobTurnaround(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := repro.RunCluster(repro.DefaultParams(), func(c *repro.Cluster, client *repro.Client) {
			id, err := client.Submit(repro.JobSpec{
				Name: "bench", Owner: "b", Nodes: 1, PPN: 1, Walltime: time.Second,
				Script: func(env *repro.JobEnv) { c.Sim.Sleep(10 * time.Millisecond) },
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Wait(id); err != nil {
				b.Fatal(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
