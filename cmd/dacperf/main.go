// Command dacperf is the repository's host-time benchmark: six
// fixed-work workloads, per-op end-to-end metrics, and a per-layer
// split that sums to the whole. README.md in this directory holds the
// workload table, both metric catalogues and how the metrics interact.
//
// Full report — every workload in its own child process, then the
// isolated probes, then derived ratios:
//
//	go run ./cmd/dacperf -seed 1 -out a1.json
//	go run ./cmd/dacperf -compare a1.json,a2.json b1.json,b2.json
//
// One workload, one result line (what BENCHMARK.json's command runs):
//
//	go run ./cmd/dacperf -workload dyn-storm -seed 3 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		out      = flag.String("out", "", "full mode: write the report as JSON to this file")
		workload = flag.String("workload", "", "measure only this workload, in this process, and print one result line")
		seconds  = flag.Float64("seconds", 0, "with -workload: keep timing reps until this much run time was measured")
		traceOn  = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 adds the traced rep and prints the per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two sides, each one report or a comma-separated set taken alternately whose samples are pooled: dacperf -compare A1.json,A2.json B1.json,B2.json; exit 1 on any worse row")
		child    = flag.String("child", "", "internal: run one section of the full report (a workload name or 'probes') and print it as JSON")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: dacperf -compare A.json[,A2.json...] B.json[,B2.json...]")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *child == "probes":
		emit(runProbes())
	case *child != "":
		d := mustWorkload(*child)
		res, err := measure(d, *seed, protocol{reps: timedReps, setups: setupSamples, traced: true, deltas: d.obs != attach{}})
		if err != nil {
			fatal(1, "dacperf: %v", err)
		}
		emit(res)
	case *workload != "":
		d := mustWorkload(*workload)
		res, err := measure(d, *seed, protocol{reps: minTimedReps, seconds: *seconds, setups: setupSamples, traced: *traceOn == 1})
		if err != nil {
			fatal(1, "dacperf: %v", err)
		}
		res.print(os.Stderr)
		emit(driverLine(res, *traceOn == 1))
	default:
		os.Exit(fullReport(*seed, *out))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func mustWorkload(name string) workloadDef {
	d, ok := findWorkload(workloads(false), name)
	if !ok {
		fatal(2, "dacperf: unknown workload %q", name)
	}
	return d
}

// emit prints v as one JSON line, the last line of standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(1, "dacperf: %v", err)
	}
	fmt.Println(string(b))
}

// driverEndToEnd are the end-to-end metrics BENCHMARK.json lists: the
// ones every workload reports and that are never 0. The rest of the
// catalogue is in the report and in -compare only: the virt_dyn_* and
// queue-wait latencies exist on two workloads of six, and
// ops_failed_share is 0 on every run, so the result line carries it as
// its attempted and failed counts instead.
var driverEndToEnd = []string{"setup_s", "host_us_per_op", "host_allocs_per_op", "virt_makespan_s", "virt_cycle_mean_ms"}

type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the result line of one -workload run: the end-to-end
// metrics BENCHMARK.json lists, or with traced the traced rep's
// per-layer rows.
func driverLine(res WorkloadResult, traced bool) driverResult {
	dr := driverResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	if traced {
		for _, m := range res.PerLayer {
			dr.Metrics[m.Name] = driverValue{m.Value, m.Unit}
		}
		return dr
	}
	for _, name := range driverEndToEnd {
		m, _ := findMetric(res.EndToEnd, name)
		dr.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	return dr
}

// fullReport runs the six workloads one at a time, each in a fresh
// child process of this binary (clean heap and VmHWM per workload,
// never more than one simulation running), then the probes, and
// checks what only the whole report can: that both server paths
// completed the same jobs.
func fullReport(seed uint64, out string) int {
	rep := Report{Schema: 1, Seed: seed, Host: hostInfo()}
	self, err := os.Executable()
	if err != nil {
		fatal(1, "dacperf: %v", err)
	}
	section := func(name string, into any) {
		fmt.Fprintf(os.Stderr, "dacperf: %s ...\n", name)
		cmd := exec.Command(self, "-child", name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fatal(1, "dacperf: %s: %v", name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], into); err != nil {
			fatal(1, "dacperf: %s: reading result: %v", name, err)
		}
	}
	for _, d := range workloads(false) {
		var res WorkloadResult
		section(d.name, &res)
		rep.Workloads = append(rep.Workloads, res)
	}
	section("probes", &rep.Layers)
	rep.Layers = append(rep.Layers, rep.derived()...)

	bad := 0
	wide, sharded := rep.workload("batch-wide"), rep.workload("sharded-wide")
	wideDone, _ := findMetric(wide.PerLayer, "pbs.jobs_done")
	shardedDone, _ := findMetric(sharded.PerLayer, "pbs.jobs_done")
	if wideDone.Value != shardedDone.Value {
		sharded.Problems = append(sharded.Problems,
			fmt.Sprintf("pbs.jobs_done %v differs from batch-wide's %v on the same input", shardedDone.Value, wideDone.Value))
		sharded.Correct = false
	}
	for _, w := range rep.Workloads {
		if !w.Correct {
			bad++
		}
	}
	rep.print(os.Stdout)
	if out != "" {
		if err := rep.write(out); err != nil {
			fatal(1, "dacperf: %v", err)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "dacperf: %d workload(s) failed their output checks\n", bad)
		return 1
	}
	return 0
}

func (r *Report) workload(name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return &WorkloadResult{}
}

// derived relates workloads to each other: what 16x the nodes cost
// per job, and what the sharded path buys on the same input.
func (r *Report) derived() []Metric {
	us := func(name string) float64 {
		m, _ := findMetric(r.workload(name).EndToEnd, "host_us_per_op")
		return m.Value
	}
	narrow, wide, sharded := us("batch-narrow"), us("batch-wide"), us("sharded-wide")
	var out []Metric
	if narrow > 0 {
		out = append(out, single("derived.scale_penalty_x", "x", wide/narrow))
	}
	if sharded > 0 {
		out = append(out, single("derived.shard_speedup_x", "x", wide/sharded))
	}
	return out
}

func hostInfo() HostInfo {
	h := HostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// go build stamps the revision into the binary; go run does not,
	// so fall back to asking git about the working directory.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(rev))
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}
