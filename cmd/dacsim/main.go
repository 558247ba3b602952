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
//	dacsim -fig 7b -observe trace,audit -capture obs   # each trial observed on its own, all of them in obs.jsonl
//	dacsim -fig scale -observe trace,telemetry,audit -capture obs   # one capture per ladder point, for dacobs
//	dacsim -fig scale -observe audit -seed 1   # flight recorder + invariant engine on; exits non-zero on a breach
//	dacsim -fig breakdown -capture prof   # the profiler figure (always traced) and its captures
//	dacsim -fig slo                       # live telemetry scrapes + SLO compliance
//	dacsim -fig serve -scale-max 64 -serve-for 2m -capture serve   # online service soak; scrape series in serve-64.jsonl
//	dacsim -fig serve -scale-max 32 -server sharded -process burst -burst-len 32   # bursty arrivals
//	dacsim -fig scale -cpuprofile cpu.pb.gz   # host-side pprof of the simulator itself
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is dacsim with its arguments and output streams: exit status 0
// on success, 1 on a failed run, an invariant breach or a drain
// shortfall, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dacsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: 7a, 7b, 8, 9, scale, breakdown, slo, serve, ablations, all")
	trials := fs.Int("trials", 10, "trials per data point (the paper averages 10)")
	maxACs := fs.Int("max", 6, "maximum accelerator count for figures 7(a) and 7(b)")
	scaleNodes := fs.Int("scale-max", 256, "largest compute-node count for -fig scale, breakdown, slo and serve (accelerators and jobs grow 8x)")
	serverMode := fs.String("server", "faithful", "server ablation for -fig scale/breakdown/serve: faithful (the paper's serial pbs_server + global Maui cycle) or sharded (sharded pbs_server + Maui walk at PerJobCost/Partitions)")
	jitter := fs.Float64("jitter", 0, "fabric latency jitter fraction (e.g. 0.1); 0 keeps runs exactly deterministic")
	parallel := fs.Int("parallel", 0, "independent trials run on this many OS threads (0 or <1 = all cores); output is identical at every level")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	observe := fs.String("observe", "", "comma-separated observers, opened afresh for every simulation (each ladder point, each paper-figure trial; not with -fig ablations): trace (spans), telemetry (instrument scrapes; always on for -fig serve), audit (flight recorder, invariant checks and state digests; exits non-zero on any breach)")
	captureOut := fs.String("capture", "", "write what the observers saw (JSONL, readable by dacobs) to PREFIX-<nodes>.jsonl per ladder point and PREFIX.jsonl for the paper figures' trials, in (figure, point, trial) order; with telemetry also PREFIX-<nodes>.prom per ladder point")
	seed := fs.Uint64("seed", 0, "the params seed (workload, jitter, and the serve figure's arrivals); a ladder point adds its compute-node count. 0 reproduces the historical figures byte for byte, distinct seeds give dacobs audit -diff distinct recordings")
	serveRate := fs.Float64("rate", 0, "with -fig serve: open-loop submission rate in jobs per virtual second (0 = compute nodes / 4)")
	serveFor := fs.Duration("serve-for", 0, "with -fig serve: virtual admission window per point; the run then drains in-flight jobs (0 = 60s)")
	process := fs.String("process", "poisson", "with -fig serve: arrival process: poisson, uniform, or burst")
	burstLen := fs.Int("burst-len", 0, "with -process burst: jobs per burst (0 = 16)")
	burstFactor := fs.Float64("burst-factor", 0, "with -process burst: in-burst rate multiplier (0 = 8)")
	maxJobs := fs.Int("max-jobs", 0, "with -fig serve: admission cap in jobs per point (0 = 2x the expected count for the window)")
	cpuProfile := fs.String("cpuprofile", "", "write a host-side CPU profile (runtime/pprof) of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a host-side heap profile (runtime/pprof, after GC) to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exit := func(status int, format string, a ...any) int {
		fmt.Fprintf(stderr, "dacsim: "+format+"\n", a...)
		return status
	}
	mode, modeErr := repro.ParseServerMode(*serverMode)
	proc, procErr := repro.ParseArrivalProcess(*process)
	obs, obsErr := repro.ParseObservers(*observe)
	switch {
	case modeErr != nil || procErr != nil || obsErr != nil:
		return exit(2, "%v", errors.Join(modeErr, procErr, obsErr))
	case mode != repro.ServerFaithful && *fig != "scale" && *fig != "breakdown" && *fig != "serve":
		return exit(2, "-server %s requires -fig scale, breakdown, or serve", mode)
	case (*serveRate != 0 || *serveFor != 0 || *process != "poisson" || *maxJobs != 0) && *fig != "serve":
		return exit(2, "-rate/-serve-for/-process/-max-jobs require -fig serve")
	case (*burstLen != 0 || *burstFactor != 0) && proc != repro.ArrivalBurst:
		return exit(2, "-burst-len/-burst-factor require -process burst")
	case *observe != "" && *fig == "ablations":
		return exit(2, "-observe requires a figure other than ablations")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return exit(1, "cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return exit(1, "cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				code = exit(1, "cpuprofile: %v", err)
			}
		}()
	}

	repro.SetParallelism(*parallel)
	params := repro.DefaultParams()
	params.LatencyJitter = *jitter
	params.Seed = *seed
	// seen collects what each run's observers saw: one entry per ladder
	// point. figs collects the paper figures' points; merged, they are
	// one more entry.
	var seen, figs []repro.Observed
	// drained is the serve figure's first drain shortfall, reported
	// after the captures are written, like an invariant breach.
	var drained error
	// werr is the first failed write to stdout; every later table is
	// skipped and run reports it.
	var werr error
	emit := func(t *metrics.Table) {
		render := t.Render
		if *csv {
			render = t.CSV
		}
		if werr == nil {
			werr = render(stdout)
		}
		if werr == nil {
			_, werr = fmt.Fprintln(stdout)
		}
	}

	run7a := func() error {
		pts, err := repro.Fig7a(params, *maxACs, *trials, obs)
		if err != nil {
			return fmt.Errorf("figure 7(a): %w", err)
		}
		emit(repro.Fig7aTable(pts))
		for i := range pts {
			figs = append(figs, pts[i].Obs)
		}
		return nil
	}
	run7b := func() error {
		pts, err := repro.Fig7b(params, *maxACs, *trials, obs)
		if err != nil {
			return fmt.Errorf("figure 7(b): %w", err)
		}
		emit(repro.Fig7bTable(pts))
		for i := range pts {
			figs = append(figs, pts[i].Obs)
		}
		return nil
	}
	run8 := func() error {
		pts, err := repro.Fig8(params, []int{0, 16, 20}, *trials, obs)
		if err != nil {
			return fmt.Errorf("figure 8: %w", err)
		}
		emit(repro.Fig8Table(pts))
		for i := range pts {
			figs = append(figs, pts[i].Obs)
		}
		return nil
	}
	run9 := func() error {
		pts, err := repro.Fig9(params, *trials, obs)
		if err != nil {
			return fmt.Errorf("figure 9: %w", err)
		}
		emit(repro.Fig9Table(pts))
		figs = append(figs, pts[0].Obs)
		return nil
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
	runScale := func() error {
		pts, err := repro.Scale(params, ladder(), mode, obs)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		if mode == repro.ServerSharded {
			emit(repro.ScaleShardedTable(pts))
		} else {
			emit(repro.ScaleTable(pts))
		}
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
		return nil
	}
	runBreakdown := func() error {
		pts, err := repro.Breakdown(params, ladder(), mode, obs)
		if err != nil {
			return fmt.Errorf("breakdown: %w", err)
		}
		emit(repro.BreakdownTable(pts))
		emit(repro.DynBreakdownTable(pts))
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
		return nil
	}
	runSLO := func() error {
		pts, err := repro.SLO(params, axis(repro.SLOSizes), obs)
		if err != nil {
			return fmt.Errorf("slo: %w", err)
		}
		emit(repro.SLOTable(pts))
		emit(repro.SLOComplianceTable(pts))
		for i := range pts {
			seen = append(seen, pts[i].Obs)
		}
		return nil
	}
	runServe := func() error {
		start := time.Now()
		pts, err := repro.Serve(params, axis(repro.ServeSizes), mode, repro.ArrivalConfig{
			Process:     proc,
			Rate:        *serveRate,
			MaxJobs:     *maxJobs,
			BurstLen:    *burstLen,
			BurstFactor: *burstFactor,
		}, *serveFor, obs)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		elapsed := time.Since(start)
		emit(repro.ServeTable(pts))
		emit(repro.ServeComplianceTable(pts))
		// The sustained-throughput summary: how fast the host pushed
		// the virtual windows through.
		var completed, events float64
		var virtual time.Duration
		for _, pt := range pts {
			seen = append(seen, pt.Obs)
			completed, events, virtual = completed+float64(pt.Completed), events+float64(pt.Dispatches), virtual+pt.Makespan
			if pt.Completed != pt.Submitted && drained == nil {
				drained = fmt.Errorf("serve: %d compute nodes drained %d of %d admitted jobs", pt.ComputeNodes, pt.Completed, pt.Submitted)
			}
		}
		fmt.Fprintf(stderr,
			"dacsim: served %.0f jobs over %v of virtual time in %v of wall time (%.0f jobs/sec, %.0f events/sec host-side)\n",
			completed, virtual.Round(time.Millisecond), elapsed.Round(time.Millisecond),
			completed/elapsed.Seconds(), events/elapsed.Seconds())
		return nil
	}
	table := func(title string, headers ...string) *metrics.Table {
		return &metrics.Table{Title: title, Headers: headers}
	}
	runAblations := func() error {
		dp, err := repro.AblationDynPriority(params, 16, 1)
		if err != nil {
			return fmt.Errorf("dyn-priority ablation: %w", err)
		}
		t := table("Ablation: top-priority vs plain-FIFO dynamic requests (16 jobs on load) [ms]", "policy", "dyn_request_latency")
		t.AddRow("top priority (paper)", metrics.Ms(dp.TopPriority))
		t.AddRow("plain FIFO", metrics.Ms(dp.PlainFIFO))
		emit(t)

		cg, err := repro.AblationCollectiveGet(params, 3, 1)
		if err != nil {
			return fmt.Errorf("collective ablation: %w", err)
		}
		t = table("Ablation: collective vs individual AC_Get (3 compute nodes, 1 AC each) [ms]", "mode", "time_until_all_nodes_served")
		t.AddRow("collective (1 request)", metrics.Ms(cg.Collective))
		t.AddRow("individual (serialized)", metrics.Ms(cg.Individual))
		emit(t)

		dv, err := repro.AblationDynamicVsStatic(params, 4)
		if err != nil {
			return fmt.Errorf("dynamic-vs-static ablation: %w", err)
		}
		t = table("Ablation: dynamic allocation vs static-peak baseline (4 phased jobs)", "policy", "makespan_ms", "accelerator_seconds", "energy_kj", "dyn_rejected")
		t.AddRow("static peak", metrics.Ms(dv.StaticMakespan), fmt.Sprintf("%.3f", dv.StaticACSeconds),
			fmt.Sprintf("%.2f", dv.StaticJoules/1000), "-")
		t.AddRow("dynamic", metrics.Ms(dv.DynamicMakespan), fmt.Sprintf("%.3f", dv.DynamicACSeconds),
			fmt.Sprintf("%.2f", dv.DynamicJoules/1000), fmt.Sprint(dv.Rejections))
		emit(t)

		bf, err := repro.AblationBackfill(params, 16, 6)
		if err != nil {
			return fmt.Errorf("backfill ablation: %w", err)
		}
		t = table("Ablation: EASY backfill (16 mixed jobs) [ms]", "backfill", "makespan")
		t.AddRow("on", metrics.Ms(bf.On))
		t.AddRow("off", metrics.Ms(bf.Off))
		emit(t)

		sp, err := repro.AblationSchedulerPortability(params, 12, 6)
		if err != nil {
			return fmt.Errorf("scheduler ablation: %w", err)
		}
		t = table("Ablation: Maui vs TORQUE basic FIFO scheduler (portability, Section V) [ms]", "scheduler", "workload_makespan", "dyn_request_latency")
		t.AddRow("maui", metrics.Ms(sp.MauiMakespan), metrics.Ms(sp.MauiDynLatency))
		t.AddRow("pbs_sched (FIFO)", metrics.Ms(sp.FIFOMakespan), metrics.Ms(sp.FIFODynLatency))
		emit(t)

		db, err := repro.AblationDoubleBuffer(params, 8)
		if err != nil {
			return fmt.Errorf("double-buffer ablation: %w", err)
		}
		t = table("Ablation: double buffering, 8 x 8 MiB chunks on one accelerator [ms]", "mode", "elapsed")
		t.AddRow("sequential", metrics.Ms(db.Sequential))
		t.AddRow("double buffered", metrics.Ms(db.Overlapped))
		emit(t)

		pa, err := repro.AblationPartialAlloc(params)
		if err != nil {
			return fmt.Errorf("partial ablation: %w", err)
		}
		t = table("Ablation: partial allocation, AC_Get(5) with 2 free", "policy", "granted")
		t.AddRow("reject when short (paper)", fmt.Sprint(pa.GrantedWithoutPartial))
		t.AddRow("partial allocation (outlook)", fmt.Sprint(pa.GrantedWithPartial))
		emit(t)
		return nil
	}

	figures := map[string][]func() error{
		"7a": {run7a}, "7b": {run7b}, "8": {run8}, "9": {run9},
		"scale": {runScale}, "breakdown": {runBreakdown}, "slo": {runSLO}, "serve": {runServe},
		"ablations": {runAblations},
		"all":       {run7a, run7b, run8, run9, runAblations},
	}
	steps, ok := figures[*fig]
	if !ok {
		return exit(2, "unknown figure %q (want 7a, 7b, 8, 9, scale, breakdown, slo, serve, ablations, all)", *fig)
	}
	start := time.Now()
	for _, step := range steps {
		if err := step(); err != nil {
			return exit(1, "%v", err)
		}
	}
	if len(figs) > 0 {
		seen = append(seen, repro.MergeObserved(figs))
	}
	if obs.Audit {
		emit(repro.AuditTable(seen))
	}
	if werr != nil {
		return exit(1, "%v", werr)
	}
	if *captureOut != "" {
		for i := range seen {
			path := repro.CapturePath(*captureOut, seen[i].ComputeNodes)
			if err := repro.WriteCaptureFile(path, &seen[i].File); err != nil {
				return exit(1, "capture: %v", err)
			}
			fmt.Fprintf(stderr, "dacsim: wrote %s to %s\n", seen[i].Kinds(), path)
			if seen[i].Prom != "" {
				path = strings.TrimSuffix(path, ".jsonl") + ".prom"
				if err := os.WriteFile(path, []byte(seen[i].Prom), 0o644); err != nil {
					return exit(1, "capture: %v", err)
				}
				fmt.Fprintf(stderr, "dacsim: wrote Prometheus exposition to %s\n", path)
			}
		}
	}
	if n := repro.AuditBreaches(seen); n != 0 {
		return exit(1, "audit: %d invariant breaches (see the capture's kind=breach audit lines)", n)
	}
	if drained != nil {
		return exit(1, "%v", drained)
	}
	if *memProfile != "" {
		runtime.GC() // report live heap, not transient garbage
		f, err := os.Create(*memProfile)
		if err == nil {
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		if err != nil {
			return exit(1, "memprofile: %v", err)
		}
	}
	fmt.Fprintf(stderr, "dacsim: done in %v of wall time\n", time.Since(start).Round(time.Millisecond))
	return 0
}
