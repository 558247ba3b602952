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
//
// Check mode holds outputs to results/pins.json and prints one line per
// violation, with the value it read, exiting 1 if there is any:
//
//	dacbench -check results/pins.json figs=figs.jsonl dyn-storm@trace1=d1.json ...
//
// A re-pin is a hand edit of pins.json that CHANGES.md states. An
// allocation ceiling is the reading + 10 %, rounded up to 0.1, and a
// re-pin only ever lowers it.
package main

import (
	"crypto/md5"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// pins is the schema of results/pins.json: every byte and count pin,
// keyed by the input that carries it. An MD5 key's file must hash to
// its pin. A Dacperf key, "<workload>@trace<N>", is the last line of
// `sh cmd/dacperf/bench.sh --workload W --seed 1 --seconds 6 --trace N`:
// each Exact metric must read its value, each Max metric at most it.
type pins struct {
	MD5     map[string]string  `json:"md5"`
	Dacperf map[string]perfPin `json:"dacperf"`
}

type perfPin struct {
	Exact map[string]float64 `json:"exact"`
	Max   map[string]float64 `json:"max"`
}

func loadPins(path string) (*pins, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var p pins
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

// checkPins checks each "key=path" input against its pin and returns one
// line per violation, naming the key and the value read. An input with
// no pin fails, and so does each pin with no input in a section some
// input belongs to: an md5-only run needs no dacperf line, one needs all.
func checkPins(p *pins, inputs []string) []string {
	var bad []string
	given := map[string]bool{}
	var md5s, perfs bool
	for _, in := range inputs {
		key, path, _ := strings.Cut(in, "=")
		given[key] = true
		fail := func(format string, a ...any) { bad = append(bad, key+": "+fmt.Sprintf(format, a...)) }
		sum, isMD5 := p.MD5[key]
		pin, isPerf := p.Dacperf[key]
		md5s, perfs = md5s || isMD5, perfs || isPerf
		data, err := os.ReadFile(path)
		switch {
		case !isMD5 && !isPerf:
			fail("no pin")
		case err != nil:
			fail("%v", err)
		case isMD5:
			if got := fmt.Sprintf("%x", md5.Sum(data)); got != sum {
				fail("md5 %s, pinned %s", got, sum)
			}
		default:
			checkPerf(data, pin, fail)
		}
	}
	var want []string
	if md5s {
		want = slices.Sorted(maps.Keys(p.MD5))
	}
	if perfs {
		want = append(want, slices.Sorted(maps.Keys(p.Dacperf))...)
	}
	for _, key := range want {
		if !given[key] {
			bad = append(bad, key+": pinned, no input")
		}
	}
	return bad
}

func checkPerf(data []byte, pin perfPin, fail func(string, ...any)) {
	var line struct {
		Correct bool
		Failed  json.RawMessage
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(data, &line); err != nil {
		fail("%v", err)
		return
	}
	if !line.Correct {
		fail("correct = false")
	}
	if string(line.Failed) != "0" {
		fail("failed = %q, want 0", line.Failed)
	}
	// A missing metric reads +Inf, which no exact pin or ceiling admits.
	read := func(name string) (float64, string) {
		if m, ok := line.Metrics[name]; ok {
			return m.Value, num(m.Value)
		}
		return math.Inf(1), "missing"
	}
	for _, name := range slices.Sorted(maps.Keys(pin.Exact)) {
		if v, s := read(name); v != pin.Exact[name] {
			fail("%s = %s, pinned %s", name, s, num(pin.Exact[name]))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(pin.Max)) {
		if v, s := read(name); v > pin.Max[name] {
			fail("%s = %s, ceiling %s", name, s, num(pin.Max[name]))
		}
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func main() {
	out := flag.String("out", "", "write a benchmark report to this file (default BENCH_<date>.json)")
	trials := flag.Int("trials", 3, "trials per figure data point")
	parallel := flag.Int("parallel", 0, "trial parallelism (0 = all cores); virtual times are identical at every level")
	baselinePath := flag.String("compare", "", "baseline report; with -candidate, compare instead of recording")
	candidatePath := flag.String("candidate", "", "candidate report to check against -compare")
	pinsPath := flag.String("check", "", "pin file; check the key=path arguments against it instead of recording")
	flag.Parse()

	if *pinsPath != "" {
		if flag.NArg() == 0 {
			log.Fatal("dacbench: -check requires key=path arguments")
		}
		p, err := loadPins(*pinsPath)
		if err != nil {
			log.Fatalf("dacbench: %v", err)
		}
		if bad := checkPins(p, flag.Args()); len(bad) > 0 {
			fmt.Println(strings.Join(bad, "\n"))
			os.Exit(1)
		}
		fmt.Printf("all %d inputs match %s\n", flag.NArg(), *pinsPath)
		return
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
