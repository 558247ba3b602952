// Command dacbench produces and compares machine-readable benchmark
// reports of the simulated DAC testbed.
//
// Record mode runs every figure experiment plus the cluster-scale
// ladder and writes a BENCH_<date>.json report. Every recorded series
// is a *virtual* time — the simulation's deterministic clock — so a
// report is the same on any host under any load; host time is
// cmd/dacperf's business, and the kernel hot paths' allocation bounds
// are their packages' AllocsPerRun tests.
//
// Compare mode checks a candidate report against a committed
// baseline and exits non-zero when any shared series differs from it
// at all, which is what the CI benchmark-regression gate runs on
// every PR:
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
	"sort"
	"time"

	"repro"
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
	// sharded pbs_server and the Maui walk at PerJobCost/Partitions,
	// recorded as their own series so the ablation's virtual times are
	// gated alongside the faithful ones.
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

// compare checks every series the baseline and candidate share and
// fails on any that differs: the virtual clock is deterministic, so a
// shared series moves only when behaviour does. Series present on one
// side only are reported without failing — experiments may be added or
// retired.
func compare(baseline, candidate *Report) (shared int, failures []string) {
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
		shared++
		status := "ok"
		if c != b {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: baseline %v ms, candidate %v ms", name, b, c))
		}
		fmt.Printf("%-4s %-40s baseline %14.6f  candidate %14.6f\n", status, name, b, c)
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
	return shared, failures
}

func main() {
	out := flag.String("out", "", "write a benchmark report to this file (default BENCH_<date>.json)")
	trials := flag.Int("trials", 3, "trials per figure data point")
	parallel := flag.Int("parallel", 0, "trial parallelism (0 = all cores); virtual times are identical at every level")
	baselinePath := flag.String("compare", "", "baseline report; with -candidate, compare instead of recording")
	candidatePath := flag.String("candidate", "", "candidate report to check against -compare")
	flag.Parse()

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
		shared, failures := compare(baseline, candidate)
		if len(failures) > 0 {
			fmt.Println()
			for _, f := range failures {
				fmt.Printf("regression: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("\nall %d shared series equal the baseline\n", shared)
		return
	}

	repro.SetParallelism(*parallel)
	// Both server modes climb to 4096 compute nodes: the faithful top
	// rungs pin the serialization effect the sharded series buys back.
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
