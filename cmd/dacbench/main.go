// Command dacbench records the virtual-time series of the simulated DAC
// testbed and holds outputs to their pins.
//
// Run with no argument, it runs every figure experiment, the
// cluster-scale ladder and the online-service points, and prints their
// series as one JSON object from a stable name ("fig7a/total/acs=3") to
// a virtual-time measurement in milliseconds. Every series is a time of
// the simulation's deterministic clock, so the record is the same on any
// host under any load; host time is cmd/dacperf's business, and the
// kernel hot paths' allocation bounds are their packages' AllocsPerRun
// tests.
//
// Check mode holds outputs to results/pins.json and prints one line per
// violation, with the value it read, exiting 1 if there is any:
//
//	dacbench > virtual.json
//	dacbench -check results/pins.json virtual=virtual.json figs=figs.jsonl dyn-storm@trace1=d1.json ...
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
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
)

// trials is the number of trials behind each figure data point, the
// number the virtual pins were recorded at.
const trials = 3

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

// record runs every experiment and returns its series by name.
func record(scaleSizes, shardedSizes []int, servePoints []benchServePoint) (map[string]float64, error) {
	series := make(map[string]float64)
	params := repro.DefaultParams()

	f7a, err := repro.Fig7a(params, 6, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig7a: %w", err)
	}
	for _, pt := range f7a {
		series[fmt.Sprintf("fig7a/waiting/acs=%d", pt.Accelerators)] = vms(pt.Waiting)
		series[fmt.Sprintf("fig7a/connect/acs=%d", pt.Accelerators)] = vms(pt.Connect)
		series[fmt.Sprintf("fig7a/total/acs=%d", pt.Accelerators)] = vms(pt.Total)
	}

	f7b, err := repro.Fig7b(params, 6, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig7b: %w", err)
	}
	for _, pt := range f7b {
		series[fmt.Sprintf("fig7b/batch/acs=%d", pt.Accelerators)] = vms(pt.Batch)
		series[fmt.Sprintf("fig7b/total/acs=%d", pt.Accelerators)] = vms(pt.Total)
	}

	f8, err := repro.Fig8(params, []int{0, 16, 20}, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	for _, pt := range f8 {
		series[fmt.Sprintf("fig8/total/load=%d", pt.Load)] = vms(pt.Total)
	}

	f9, err := repro.Fig9(params, trials, repro.Observers{})
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	for _, pt := range f9 {
		series[fmt.Sprintf("fig9/total/node=%s", pt.Node)] = vms(pt.Total)
	}

	for _, n := range scaleSizes {
		pts, err := repro.Scale(params, []int{n}, repro.ServerFaithful, repro.Observers{})
		if err != nil {
			return nil, fmt.Errorf("scale/cns=%d: %w", n, err)
		}
		pt := pts[0]
		series[fmt.Sprintf("scale/cycle_mean/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMean)
		series[fmt.Sprintf("scale/cycle_max/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMax)
		series[fmt.Sprintf("scale/dyn_latency/cns=%d", pt.ComputeNodes)] = vms(pt.DynLatency)
		series[fmt.Sprintf("scale/makespan/cns=%d", pt.ComputeNodes)] = vms(pt.Makespan)
	}

	// The audited rung: the smallest ladder point rerun with the
	// flight recorder, invariant engine, and digest ticker attached.
	// Recording costs no virtual time, so these series must sit on
	// top of the unaudited scale/cns=8 ones — their pins hold the
	// recorder's simulation-visible overhead at zero.
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
		series[fmt.Sprintf("scale_audited/cycle_mean/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMean)
		series[fmt.Sprintf("scale_audited/makespan/cns=%d", pt.ComputeNodes)] = vms(pt.Makespan)
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
		series[fmt.Sprintf("scale_sharded/cycle_mean/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMean)
		series[fmt.Sprintf("scale_sharded/cycle_max/cns=%d", pt.ComputeNodes)] = vms(pt.CycleMax)
		series[fmt.Sprintf("scale_sharded/dyn_p50/cns=%d", pt.ComputeNodes)] = vms(pt.DynP50)
		series[fmt.Sprintf("scale_sharded/dyn_p99/cns=%d", pt.ComputeNodes)] = vms(pt.DynP99)
		series[fmt.Sprintf("scale_sharded/makespan/cns=%d", pt.ComputeNodes)] = vms(pt.Makespan)
	}

	// The online-service points: a resident instance per (size, server
	// mode) absorbs an open-loop Poisson stream for a fixed virtual
	// window; the virtual makespan of each is a series too.
	for _, sp := range servePoints {
		key := fmt.Sprintf("cns=%d/mode=%s", sp.n, sp.mode)
		pts, err := repro.Serve(params, []int{sp.n}, sp.mode, repro.ArrivalConfig{}, serveBenchHorizon, repro.Observers{})
		if err != nil {
			return nil, fmt.Errorf("serve/%s: %w", key, err)
		}
		pt := pts[0]
		if pt.Completed != pt.Submitted {
			return nil, fmt.Errorf("serve/%s: drained %d of %d jobs", key, pt.Completed, pt.Submitted)
		}
		series["serve/makespan/"+key] = vms(pt.Makespan)
	}

	return series, nil
}

// pins is the schema of results/pins.json: every byte and count pin,
// keyed by the input that carries it. An MD5 key's file must hash to
// its pin. A Dacperf key, "<workload>@trace<N>", is the last line of
// `sh cmd/dacperf/bench.sh --workload W --seed 1 --seconds 6 --trace N`:
// each Exact metric must read its value, each Max metric at most it.
// The "virtual" key is dacbench's own record: it must hold exactly the
// Virtual series, each at its value.
type pins struct {
	MD5     map[string]string  `json:"md5"`
	Dacperf map[string]perfPin `json:"dacperf"`
	Virtual map[string]float64 `json:"virtual"`
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
		case !isMD5 && !isPerf && key != "virtual":
			fail("no pin")
		case err != nil:
			fail("%v", err)
		case isMD5:
			if got := fmt.Sprintf("%x", md5.Sum(data)); got != sum {
				fail("md5 %s, pinned %s", got, sum)
			}
		case isPerf:
			checkPerf(data, pin, fail)
		default:
			checkVirtual(data, p.Virtual, fail)
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
	got := make(map[string]float64, len(line.Metrics))
	for name, m := range line.Metrics {
		got[name] = m.Value
	}
	checkExact(got, pin.Exact, fail)
	for _, name := range slices.Sorted(maps.Keys(pin.Max)) {
		if v, s := read(got, name); v > pin.Max[name] {
			fail("%s = %s, ceiling %s", name, s, num(pin.Max[name]))
		}
	}
}

// checkVirtual holds a dacbench record to the virtual pins: every pinned
// series at its value, and no series without a pin.
func checkVirtual(data []byte, pin map[string]float64, fail func(string, ...any)) {
	var series map[string]float64
	if err := json.Unmarshal(data, &series); err != nil {
		fail("%v", err)
		return
	}
	checkExact(series, pin, fail)
	for _, name := range slices.Sorted(maps.Keys(series)) {
		if _, ok := pin[name]; !ok {
			fail("%s = %s, no pin", name, num(series[name]))
		}
	}
}

// checkExact fails each pinned name whose reading is not its pin.
func checkExact(got, exact map[string]float64, fail func(string, ...any)) {
	for _, name := range slices.Sorted(maps.Keys(exact)) {
		if v, s := read(got, name); v != exact[name] {
			fail("%s = %s, pinned %s", name, s, num(exact[name]))
		}
	}
}

// read returns a reading and its text. A missing name reads +Inf, which
// no exact pin or ceiling admits.
func read(got map[string]float64, name string) (float64, string) {
	if v, ok := got[name]; ok {
		return v, num(v)
	}
	return math.Inf(1), "missing"
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func main() {
	pinsPath := flag.String("check", "", "pin file; check the key=path arguments against it instead of recording")
	flag.Parse()

	if *pinsPath == "" {
		if flag.NArg() > 0 {
			log.Fatal("dacbench: key=path arguments need -check")
		}
		// Both server modes climb to 4096 compute nodes: the faithful top
		// rungs pin the serialization effect the sharded series buys back.
		series, err := record([]int{8, 64, 256, 1024, 4096}, []int{1024, 4096},
			[]benchServePoint{
				{256, repro.ServerFaithful}, {256, repro.ServerSharded},
				{1024, repro.ServerFaithful}, {1024, repro.ServerSharded},
			})
		if err != nil {
			log.Fatalf("dacbench: %v", err)
		}
		data, err := json.MarshalIndent(series, "", "  ")
		if err != nil {
			log.Fatalf("dacbench: %v", err)
		}
		if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
			log.Fatalf("dacbench: %v", err)
		}
		return
	}

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
}
