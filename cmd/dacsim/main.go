// Command dacsim regenerates the figures of the paper's evaluation
// (Section IV) on the simulated DAC testbed and prints the series as
// aligned tables (or CSV).
//
// Usage:
//
//	dacsim -fig all            # every figure, paper trial count
//	dacsim -fig 7b -trials 10  # one figure
//	dacsim -fig ablations      # the DESIGN.md ablation suite
//	dacsim -fig 8 -csv         # machine-readable output
//	dacsim -fig scale -observe trace,telemetry,audit -capture obs   # one capture per ladder point, for dacobs
//	dacsim -fig scale -observe audit -seed 1   # flight recorder + invariant engine on; exits non-zero on a breach
//	dacsim -fig breakdown -capture prof   # the profiler figure (always traced) and its captures
//	dacsim -fig slo                       # live telemetry scrapes + SLO compliance
//	dacsim -fig serve -rate 64 -serve-for 30s   # online service mode at a custom load point
//	dacsim -fig scale -cpuprofile cpu.pb.gz   # host-side pprof of the simulator itself
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/metrics"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 7a, 7b, 8, 9, scale, breakdown, slo, serve, ablations, all")
	trials := flag.Int("trials", 10, "trials per data point (the paper averages 10)")
	maxACs := flag.Int("max", 6, "maximum accelerator count for figures 7(a) and 7(b)")
	scaleNodes := flag.Int("scale-max", 256, "largest compute-node count for -fig scale (accelerators and jobs grow 8x)")
	serverMode := flag.String("server", "faithful", "server ablation for -fig scale/breakdown: faithful (the paper's serial pbs_server + global Maui cycle) or sharded (partitioned fast path)")
	jitter := flag.Float64("jitter", 0, "fabric latency jitter fraction (e.g. 0.1); 0 keeps runs exactly deterministic")
	parallel := flag.Int("parallel", 0, "independent trials run on this many OS threads (0 or <1 = all cores); output is identical at every level")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	observe := flag.String("observe", "", "comma-separated observers to attach to every run: trace (spans), telemetry (instrument scrapes, cut per ladder point: the paper figures run many simulations and have no one clock to window on), audit (flight recorder, invariant checks and state digests; exits non-zero on any breach)")
	captureOut := flag.String("capture", "", "write what the observers saw (JSONL, readable by dacobs) to PREFIX-<nodes>.jsonl per ladder point, or PREFIX.jsonl for the paper figures; with telemetry also PREFIX-<nodes>.prom")
	seed := flag.Uint64("seed", 0, "workload/jitter seed; 0 reproduces the historical figures byte for byte, distinct seeds give dacobs audit -diff distinct recordings")
	serveRate := flag.Float64("rate", 0, "with -fig serve: open-loop submission rate in jobs per virtual second (0 picks a per-size default)")
	serveFor := flag.Duration("serve-for", 0, "with -fig serve: virtual admission window per point (0 = 60s default)")
	cpuProfile := flag.String("cpuprofile", "", "write a host-side CPU profile (runtime/pprof) of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a host-side heap profile (runtime/pprof, after GC) to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("dacsim: cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("dacsim: cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("dacsim: cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("dacsim: memprofile: %v", err)
			}
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("dacsim: memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("dacsim: memprofile: %v", err)
			}
		}()
	}

	repro.SetParallelism(*parallel)
	params := repro.DefaultParams()
	params.LatencyJitter = *jitter
	params.Seed = *seed
	obs, err := repro.ParseObservers(*observe)
	if err != nil {
		log.Fatalf("dacsim: -observe: %v", err)
	}
	// seen collects what each run's observers saw: one entry per ladder
	// point, or one for all trials of the paper figures.
	var seen []repro.Observed
	emit := func(t *metrics.Table) {
		var err error
		if *csv {
			err = t.CSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			log.Fatalf("dacsim: %v", err)
		}
		fmt.Println()
	}

	run7a := func() {
		pts, err := repro.Fig7a(params, *maxACs, *trials)
		if err != nil {
			log.Fatalf("dacsim: figure 7(a): %v", err)
		}
		emit(repro.Fig7aTable(pts))
	}
	run7b := func() {
		pts, err := repro.Fig7b(params, *maxACs, *trials)
		if err != nil {
			log.Fatalf("dacsim: figure 7(b): %v", err)
		}
		emit(repro.Fig7bTable(pts))
	}
	run8 := func() {
		pts, err := repro.Fig8(params, []int{0, 16, 20}, *trials)
		if err != nil {
			log.Fatalf("dacsim: figure 8: %v", err)
		}
		emit(repro.Fig8Table(pts))
	}
	run9 := func() {
		pts, err := repro.Fig9(params, *trials)
		if err != nil {
			log.Fatalf("dacsim: figure 9: %v", err)
		}
		emit(repro.Fig9Table(pts))
	}
	mode, err := repro.ParseServerMode(*serverMode)
	if err != nil {
		log.Fatalf("dacsim: %v", err)
	}
	// axis cuts a figure's compute-node axis at -scale-max, ending on it.
	axis := func(base []int) []int {
		var sizes []int
		for _, n := range base {
			if n <= *scaleNodes {
				sizes = append(sizes, n)
			}
		}
		if len(sizes) == 0 || sizes[len(sizes)-1] != *scaleNodes {
			sizes = append(sizes, *scaleNodes)
		}
		return sizes
	}
	// The sharded ladder's axis continues past 256 nodes; the faithful
	// axis stays the paper-era ladder so existing figures do not move.
	ladder := func() []int {
		if mode == repro.ServerSharded {
			return axis(repro.ScaleSizesExtended)
		}
		return axis(repro.ScaleSizes)
	}
	runScale := func() {
		pts, err := repro.Scale(params, ladder(), mode, obs)
		if err != nil {
			log.Fatalf("dacsim: scale: %v", err)
		}
		if mode == repro.ServerSharded {
			emit(repro.ScaleShardedTable(pts))
		} else {
			emit(repro.ScaleTable(pts))
		}
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
	}
	runBreakdown := func() {
		pts, err := repro.Breakdown(params, ladder(), mode, obs)
		if err != nil {
			log.Fatalf("dacsim: breakdown: %v", err)
		}
		emit(repro.BreakdownTable(pts))
		emit(repro.DynBreakdownTable(pts))
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
	}
	runSLO := func() {
		pts, err := repro.SLO(params, axis(repro.SLOSizes), obs)
		if err != nil {
			log.Fatalf("dacsim: slo: %v", err)
		}
		emit(repro.SLOTable(pts))
		emit(repro.SLOComplianceTable(pts))
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
	}
	runServe := func() {
		pts, err := repro.Serve(params, axis(repro.ServeSizes), mode, *serveRate, *serveFor, obs)
		if err != nil {
			log.Fatalf("dacsim: serve: %v", err)
		}
		emit(repro.ServeTable(pts))
		emit(repro.ServeComplianceTable(pts))
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
	}
	runAblations := func() {
		dp, err := repro.AblationDynPriority(params, 16, 1)
		if err != nil {
			log.Fatalf("dacsim: dyn-priority ablation: %v", err)
		}
		t := &metrics.Table{
			Title:   "Ablation: top-priority vs plain-FIFO dynamic requests (16 jobs on load) [ms]",
			Headers: []string{"policy", "dyn_request_latency"},
		}
		t.AddRow("top priority (paper)", metrics.Ms(dp.TopPriority))
		t.AddRow("plain FIFO", metrics.Ms(dp.PlainFIFO))
		emit(t)

		cg, err := repro.AblationCollectiveGet(params, 3, 1)
		if err != nil {
			log.Fatalf("dacsim: collective ablation: %v", err)
		}
		t = &metrics.Table{
			Title:   "Ablation: collective vs individual AC_Get (3 compute nodes, 1 AC each) [ms]",
			Headers: []string{"mode", "time_until_all_nodes_served"},
		}
		t.AddRow("collective (1 request)", metrics.Ms(cg.Collective))
		t.AddRow("individual (serialized)", metrics.Ms(cg.Individual))
		emit(t)

		dv, err := repro.AblationDynamicVsStatic(params, 4)
		if err != nil {
			log.Fatalf("dacsim: dynamic-vs-static ablation: %v", err)
		}
		t = &metrics.Table{
			Title:   "Ablation: dynamic allocation vs static-peak baseline (4 phased jobs)",
			Headers: []string{"policy", "makespan_ms", "accelerator_seconds"},
		}
		t.AddRow("static peak", metrics.Ms(dv.StaticMakespan), fmt.Sprintf("%.3f", dv.StaticACSeconds))
		t.AddRow("dynamic", metrics.Ms(dv.DynamicMakespan), fmt.Sprintf("%.3f", dv.DynamicACSeconds))
		emit(t)

		bf, err := repro.AblationBackfill(params, 16, 6)
		if err != nil {
			log.Fatalf("dacsim: backfill ablation: %v", err)
		}
		t = &metrics.Table{
			Title:   "Ablation: EASY backfill (16 mixed jobs) [ms]",
			Headers: []string{"backfill", "makespan"},
		}
		t.AddRow("on", metrics.Ms(bf.On))
		t.AddRow("off", metrics.Ms(bf.Off))
		emit(t)

		sp, err := repro.AblationSchedulerPortability(params, 12, 6)
		if err != nil {
			log.Fatalf("dacsim: scheduler ablation: %v", err)
		}
		t = &metrics.Table{
			Title:   "Ablation: Maui vs TORQUE basic FIFO scheduler (portability, Section V) [ms]",
			Headers: []string{"scheduler", "workload_makespan", "dyn_request_latency"},
		}
		t.AddRow("maui", metrics.Ms(sp.MauiMakespan), metrics.Ms(sp.MauiDynLatency))
		t.AddRow("pbs_sched (FIFO)", metrics.Ms(sp.FIFOMakespan), metrics.Ms(sp.FIFODynLatency))
		emit(t)

		db, err := repro.AblationDoubleBuffer(params, 8)
		if err != nil {
			log.Fatalf("dacsim: double-buffer ablation: %v", err)
		}
		t = &metrics.Table{
			Title:   "Ablation: double buffering, 8 x 8 MiB chunks on one accelerator [ms]",
			Headers: []string{"mode", "elapsed"},
		}
		t.AddRow("sequential", metrics.Ms(db.Sequential))
		t.AddRow("double buffered", metrics.Ms(db.Overlapped))
		emit(t)

		pa, err := repro.AblationPartialAlloc(params)
		if err != nil {
			log.Fatalf("dacsim: partial ablation: %v", err)
		}
		t = &metrics.Table{
			Title:   "Ablation: partial allocation, AC_Get(5) with 2 free",
			Headers: []string{"policy", "granted"},
		}
		t.AddRow("reject when short (paper)", fmt.Sprint(pa.GrantedWithoutPartial))
		t.AddRow("partial allocation (outlook)", fmt.Sprint(pa.GrantedWithPartial))
		emit(t)
	}

	if mode != repro.ServerFaithful && *fig != "scale" && *fig != "breakdown" && *fig != "serve" {
		log.Fatalf("dacsim: -server %s requires -fig scale, breakdown, or serve", mode)
	}
	if (*serveRate != 0 || *serveFor != 0) && *fig != "serve" {
		log.Fatalf("dacsim: -rate/-serve-for require -fig serve")
	}
	// The paper figures run many trials per point; they share one
	// observer session, attached to the parameter set every trial
	// derives from. The ladder figures open one per point themselves.
	var shared *repro.ObserverSession
	switch *fig {
	case "scale", "breakdown", "slo", "serve":
	default:
		shared = obs.Open()
		shared.Attach(&params)
	}
	start := time.Now()
	switch *fig {
	case "7a":
		run7a()
	case "7b":
		run7b()
	case "8":
		run8()
	case "9":
		run9()
	case "scale":
		runScale()
	case "breakdown":
		runBreakdown()
	case "slo":
		runSLO()
	case "serve":
		runServe()
	case "ablations":
		runAblations()
	case "all":
		run7a()
		run7b()
		run8()
		run9()
		runAblations()
	default:
		log.Fatalf("dacsim: unknown figure %q (want 7a, 7b, 8, 9, scale, breakdown, slo, serve, ablations, all)", *fig)
	}
	if shared != nil {
		seen = append(seen, repro.Observe(0, shared))
	}
	if obs.Audit {
		emit(repro.AuditTable(seen))
	}
	if *captureOut != "" {
		for i := range seen {
			path := repro.CapturePath(*captureOut, seen[i].ComputeNodes)
			if err := repro.WriteCaptureFile(path, &seen[i].File); err != nil {
				log.Fatalf("dacsim: capture: %v", err)
			}
			fmt.Fprintf(os.Stderr, "dacsim: wrote %s to %s\n", seen[i].Kinds(), path)
			if seen[i].Prom != "" {
				path = strings.TrimSuffix(path, ".jsonl") + ".prom"
				if err := os.WriteFile(path, []byte(seen[i].Prom), 0o644); err != nil {
					log.Fatalf("dacsim: capture: %v", err)
				}
				fmt.Fprintf(os.Stderr, "dacsim: wrote Prometheus exposition to %s\n", path)
			}
		}
	}
	if n := repro.AuditBreaches(seen); n != 0 {
		log.Fatalf("dacsim: audit: %d invariant breaches (see the capture's kind=breach audit lines)", n)
	}
	fmt.Fprintf(os.Stderr, "dacsim: done in %v of wall time\n", time.Since(start).Round(time.Millisecond))
}
