// Command dacbench produces and compares machine-readable benchmark
// reports of the simulated DAC testbed.
//
// Record mode runs every figure experiment plus the cluster-scale
// ladder and writes a BENCH_<date>.json report. All recorded series
// are *virtual* times — the simulation's deterministic clock — or
// allocation counts, so they are stable across host machines and
// load; host time is cmd/dacperf's business.
//
// Compare mode checks a candidate report against a committed
// baseline and exits non-zero when any shared virtual-time series
// deviates by more than the tolerance (default ±15%) or any allocs/op
// series grows, which is what the CI benchmark-regression gate runs
// on every PR:
//
//	dacbench -out BENCH_2026-08-05.json
//	dacbench -compare BENCH_baseline.json -candidate BENCH_new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/kernelbench"
)

// Report is the BENCH_<date>.json schema. Series maps a stable name
// ("fig7a/total/acs=3") to a virtual-time measurement in
// milliseconds.
type Report struct {
	SchemaVersion int                `json:"schema_version"`
	Date          string             `json:"date"`
	GoVersion     string             `json:"go_version"`
	Trials        int                `json:"trials"`
	Series        map[string]float64 `json:"series_virtual_ms"`
	// Allocs records the kernel microbenchmarks' allocs/op. These are
	// deterministic (the hot paths are pinned at zero by tier-1
	// tests), so compare gates on any growth.
	Allocs map[string]float64 `json:"allocs_per_op,omitempty"`
}

func vms(d time.Duration) float64 { return float64(d) / 1e6 }

// benchServePoint names one online-service point: a cluster size and
// the server ablation serving it.
type benchServePoint struct {
	n    int
	mode repro.ServerMode
}

// serveBenchHorizon is the virtual admission window per serve point —
// long enough for the resident instance to reach steady state, short
// enough that the 1024-node faithful point stays a modest slice of a
// record run.
const serveBenchHorizon = 20 * time.Second

func record(trials int, scaleSizes, shardedSizes []int, servePoints []benchServePoint) (*Report, error) {
	rep := &Report{
		SchemaVersion: 1,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		Trials:        trials,
		Series:        make(map[string]float64),
		Allocs:        make(map[string]float64),
	}
	params := repro.DefaultParams()

	f7a, err := repro.Fig7a(params, 6, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig7a: %w", err)
	}
	for _, pt := range f7a {
		rep.Series[fmt.Sprintf("fig7a/waiting/acs=%d", pt.Accelerators)] = vms(pt.Waiting)
		rep.Series[fmt.Sprintf("fig7a/connect/acs=%d", pt.Accelerators)] = vms(pt.Connect)
		rep.Series[fmt.Sprintf("fig7a/total/acs=%d", pt.Accelerators)] = vms(pt.Total)
	}

	f7b, err := repro.Fig7b(params, 6, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig7b: %w", err)
	}
	for _, pt := range f7b {
		rep.Series[fmt.Sprintf("fig7b/batch/acs=%d", pt.Accelerators)] = vms(pt.Batch)
		rep.Series[fmt.Sprintf("fig7b/total/acs=%d", pt.Accelerators)] = vms(pt.Total)
	}

	f8, err := repro.Fig8(params, []int{0, 16, 20}, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	for _, pt := range f8 {
		rep.Series[fmt.Sprintf("fig8/total/load=%d", pt.Load)] = vms(pt.Total)
	}

	f9, err := repro.Fig9(params, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	for _, pt := range f9 {
		rep.Series[fmt.Sprintf("fig9/total/node=%s", pt.Node)] = vms(pt.Total)
	}

	for _, n := range scaleSizes {
		pts, err := repro.Scale(params, []int{n}, repro.ServerFaithful, repro.Observers{})
		if err != nil {
			return nil, fmt.Errorf("scale/cns=%d: %w", n, err)
		}
		pt := pts[0]
		rep.Series[fmt.Sprintf("scale/cycle_mean/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMean)
		rep.Series[fmt.Sprintf("scale/cycle_max/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMax)
		rep.Series[fmt.Sprintf("scale/dyn_latency/cns=%d", pt.ComputeNodes)] = vms(pt.DynLatency)
		rep.Series[fmt.Sprintf("scale/makespan/cns=%d", pt.ComputeNodes)] = vms(pt.Makespan)
	}

	// The audited rung: the smallest ladder point rerun with the
	// flight recorder, invariant engine, and digest ticker attached.
	// Recording costs no virtual time, so these series must sit on
	// top of the unaudited scale/cns=8 ones — the compare gate holds
	// the recorder's simulation-visible overhead at zero.
	if len(scaleSizes) > 0 {
		n := scaleSizes[0]
		pts, err := repro.Scale(params, []int{n}, repro.ServerFaithful, repro.Observers{Audit: true})
		if err != nil {
			return nil, fmt.Errorf("scale_audited/cns=%d: %w", n, err)
		}
		pt := pts[0]
		if pt.Obs.Breaches != 0 {
			return nil, fmt.Errorf("scale_audited/cns=%d: %d invariant breaches", n, pt.Obs.Breaches)
		}
		rep.Series[fmt.Sprintf("scale_audited/cycle_mean/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMean)
		rep.Series[fmt.Sprintf("scale_audited/makespan/cns=%d", pt.ComputeNodes)] = vms(pt.Makespan)
	}

	// The sharded-server rungs of the ladder: same workload through the
	// partitioned pbs_server and Maui cycle, recorded as their own
	// series so the ablation's virtual times are gated alongside the
	// faithful ones.
	for _, n := range shardedSizes {
		pts, err := repro.Scale(params, []int{n}, repro.ServerSharded, repro.Observers{})
		if err != nil {
			return nil, fmt.Errorf("scale_sharded/cns=%d: %w", n, err)
		}
		pt := pts[0]
		rep.Series[fmt.Sprintf("scale_sharded/cycle_mean/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMean)
		rep.Series[fmt.Sprintf("scale_sharded/cycle_max/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMax)
		rep.Series[fmt.Sprintf("scale_sharded/dyn_p50/cns=%d", pt.ComputeNodes)] = vms(pt.DynP50)
		rep.Series[fmt.Sprintf("scale_sharded/dyn_p99/cns=%d", pt.ComputeNodes)] = vms(pt.DynP99)
		rep.Series[fmt.Sprintf("scale_sharded/makespan/cns=%d", pt.ComputeNodes)] = vms(pt.Makespan)
	}

	// The online-service points: a resident instance per (size, server
	// mode) absorbs an open-loop Poisson stream for a fixed virtual
	// window; the virtual makespan of each joins the Series gate.
	for _, sp := range servePoints {
		key := fmt.Sprintf("cns=%d/mode=%s", sp.n, sp.mode)
		pts, err := repro.Serve(params, []int{sp.n}, sp.mode, 0, serveBenchHorizon, repro.Observers{})
		if err != nil {
			return nil, fmt.Errorf("serve/%s: %w", key, err)
		}
		pt := pts[0]
		if pt.Completed != pt.Submitted {
			return nil, fmt.Errorf("serve/%s: drained %d of %d jobs", key, pt.Completed, pt.Submitted)
		}
		rep.Series["serve/makespan/"+key] = vms(pt.Makespan)
	}

	// Kernel microbenchmarks: allocs/op is the gated number.
	for _, kb := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"kernel/event_dispatch", kernelbench.EventDispatch},
		{"kernel/sleep_wake", kernelbench.SleepWake},
		{"kernel/sleep_park", kernelbench.SleepPark},
		{"kernel/netsim_hop", kernelbench.NetsimHop},
		{"telemetry/hist_record", kernelbench.HistogramRecord},
		{"telemetry/registry_scrape", kernelbench.RegistryScrape},
		{"audit/record_disabled", kernelbench.AuditRecordDisabled},
		{"audit/record_enabled", kernelbench.AuditRecordEnabled},
		{"workload/arrivals_next", kernelbench.ArrivalsNext},
		{"sched/cycle_idle_1024", kernelbench.SchedCycleIdle1024},
		{"sched/cycle_churn_1024", kernelbench.SchedCycleChurn1024},
	} {
		r := testing.Benchmark(kb.fn)
		rep.Allocs[kb.name] = float64(r.AllocsPerOp())
	}

	return rep, nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Series) == 0 {
		return nil, fmt.Errorf("%s: no series", path)
	}
	return &rep, nil
}

// compare checks every series the baseline and candidate share (the
// virtual clock is deterministic, so shared series should match to
// well within the tolerance) and reports series present on only one
// side without failing on them — experiments may be added or retired.
func compare(baseline, candidate *Report, tol float64) (failures []string) {
	if baseline.Trials != candidate.Trials {
		fmt.Printf("note: trials differ (baseline %d, candidate %d); means may shift with jitter enabled\n",
			baseline.Trials, candidate.Trials)
	}
	names := make([]string, 0, len(baseline.Series))
	for name := range baseline.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := baseline.Series[name]
		c, ok := candidate.Series[name]
		if !ok {
			fmt.Printf("note: series %q missing from candidate\n", name)
			continue
		}
		var dev float64
		switch {
		case b == 0 && c == 0:
			continue
		case b == 0:
			dev = 1
		default:
			dev = (c - b) / b
			if dev < 0 {
				dev = -dev
			}
		}
		status := "ok"
		if dev > tol {
			status = "FAIL"
			failures = append(failures,
				fmt.Sprintf("%s: baseline %.3f ms, candidate %.3f ms (%.1f%% > %.0f%%)",
					name, b, c, dev*100, tol*100))
		}
		fmt.Printf("%-4s %-32s baseline %10.3f  candidate %10.3f  (%+.1f%%)\n",
			status, name, b, c, (c-b)/max(b, 1e-9)*100)
	}
	// Sort before printing: map iteration order would otherwise make
	// the compare log differ run to run (and trip the maporder
	// analyzer, which is how this loop got its sort).
	var added []string
	for name := range candidate.Series {
		if _, ok := baseline.Series[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("note: new series %q not in baseline\n", name)
	}

	// Allocation gate: a kernel hot path that starts allocating is a
	// regression even when virtual times are unchanged, so any
	// allocs/op growth over the baseline fails. Shrinking is fine.
	if len(baseline.Allocs) > 0 {
		fmt.Println()
		anames := make([]string, 0, len(baseline.Allocs))
		for name := range baseline.Allocs {
			anames = append(anames, name)
		}
		sort.Strings(anames)
		for _, name := range anames {
			b := baseline.Allocs[name]
			c, ok := candidate.Allocs[name]
			if !ok {
				fmt.Printf("note: allocs series %q missing from candidate\n", name)
				continue
			}
			status := "ok"
			if c > b {
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: baseline %.0f allocs/op, candidate %.0f allocs/op (growth)", name, b, c))
			}
			fmt.Printf("%-4s %-32s baseline %7.0f allocs/op  candidate %7.0f allocs/op\n", status, name, b, c)
		}
	}
	return failures
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func main() {
	out := flag.String("out", "", "write a benchmark report to this file (default BENCH_<date>.json)")
	trials := flag.Int("trials", 3, "trials per figure data point")
	parallel := flag.Int("parallel", 0, "trial parallelism (0 = all cores); virtual times are identical at every level")
	baselinePath := flag.String("compare", "", "baseline report; with -candidate, compare instead of recording")
	candidatePath := flag.String("candidate", "", "candidate report to check against -compare")
	tol := flag.Float64("tolerance", 0.15, "maximum relative deviation per virtual-time series")
	cpuProfile := flag.String("cpuprofile", "", "write a host-side CPU profile (runtime/pprof) of the record run to this file")
	memProfile := flag.String("memprofile", "", "write a host-side heap profile (runtime/pprof, after GC) on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("dacbench: cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("dacbench: cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("dacbench: cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("dacbench: memprofile: %v", err)
			}
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("dacbench: memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("dacbench: memprofile: %v", err)
			}
		}()
	}

	if *baselinePath != "" {
		if *candidatePath == "" {
			log.Fatal("dacbench: -compare requires -candidate")
		}
		baseline, err := load(*baselinePath)
		if err != nil {
			log.Fatalf("dacbench: %v", err)
		}
		candidate, err := load(*candidatePath)
		if err != nil {
			log.Fatalf("dacbench: %v", err)
		}
		failures := compare(baseline, candidate, *tol)
		if len(failures) > 0 {
			fmt.Println()
			for _, f := range failures {
				fmt.Printf("regression: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("\nall %d shared series within %.0f%% of baseline\n",
			len(baseline.Series), *tol*100)
		return
	}

	repro.SetParallelism(*parallel)
	// Both server modes climb to 4096 compute nodes: the faithful top
	// rungs pin the serialization effect the sharded series buys back
	// (the 4096-node serial server costs ~15s of host wall time — the
	// bulk of a record run — which is itself the ablation's point).
	rep, err := record(*trials, []int{8, 64, 256, 1024, 4096}, []int{1024, 4096},
		[]benchServePoint{
			{256, repro.ServerFaithful}, {256, repro.ServerSharded},
			{1024, repro.ServerFaithful}, {1024, repro.ServerSharded},
		})
	if err != nil {
		log.Fatalf("dacbench: %v", err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("dacbench: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("dacbench: %v", err)
	}
	fmt.Printf("dacbench: wrote %d series to %s\n", len(rep.Series), path)
}
