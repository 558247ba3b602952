package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// protocol is how one workload is measured inside its process: rep 0
// is cold and reported only as host.cold_run_s, then timed reps with
// nothing attached beyond what the workload defines, then (when traced)
// one further rep under a registry and a CPU profile that carries the
// per-layer numbers.
type protocol struct {
	reps    int     // timed reps to run at least
	seconds float64 // keep timing reps until this much run time was measured
	setups  int     // stand-alone set-ups setup_s is the median of
	traced  bool
	deltas  bool // add the one-subsystem-attached overhead rows (obs-on)
}

// The protocol's counts outside the package's own tests. A full report
// times timedReps reps of each workload; a -workload run, whose length
// the caller fixes with -seconds, times at least minTimedReps. setup_s
// is the median of setupSamples set-ups.
const (
	timedReps    = 5
	minTimedReps = 3
	setupSamples = 15
)

// setupSampleMin is the least set-up time one sample holds: a sample
// repeats the set-up until it has measured this much and reports the
// mean, so that a 2 ms set-up is not timed one page fault at a time.
const setupSampleMin = 50 * time.Millisecond

// countNames fixes the order of the per-layer count rows.
var countNames = []string{
	"sim.events", "sim.events_per_op", "sim.ns_per_event",
	"netsim.msgs", "netsim.msgs_per_op", "netsim.dropped",
	"pbs.submits", "pbs.jobs_done", "pbs.rpc_batches", "pbs.dyn_granted", "pbs.dyn_rejected",
	"pbs.server_errors", "pbs.records_purged",
	"maui.cycles", "maui.cycles_per_op", "maui.idle_cycle_share", "maui.placed",
	"maui.backfill_hits", "maui.alloc_accept_ratio",
	"dac.attach", "dac.detach",
	"service.admit_batches", "service.recycled",
	"telemetry.windows", "audit.events", "audit.breaches", "trace.spans", "trace.dropped_spans",
}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case name == "sim.ns_per_event":
		return "ns"
	}
	return "count"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func measure(d workloadDef, seed uint64, pr protocol) (WorkloadResult, error) {
	res := WorkloadResult{Name: d.name, Op: d.op, Why: d.why}
	cold, err := runRep(d, seed, attach{}, false)
	if err != nil {
		return res, err
	}
	res.InputDigest = fmt.Sprintf("%016x", cold.digest)
	var timed []*rep
	var measured time.Duration
	for len(timed) < pr.reps || measured.Seconds() < pr.seconds {
		r, err := runRep(d, seed, attach{}, false)
		if err != nil {
			return res, err
		}
		timed = append(timed, r)
		measured += r.run
		if r.exact != cold.exact {
			res.Problems = append(res.Problems,
				fmt.Sprintf("nondeterministic: timed rep %d %+v, cold rep %+v", len(timed), r.exact, cold.exact))
		}
	}
	res.TimedReps = len(timed)
	res.Attempted, res.Failed = cold.exact.ops, cold.exact.failed
	ops := float64(max(cold.exact.ops, 1))

	per := func(f func(*rep) float64) []float64 {
		out := make([]float64, len(timed))
		for i, r := range timed {
			out[i] = f(r)
		}
		return out
	}
	usPerOp := sampled("host_us_per_op", "us", per(func(r *rep) float64 { return float64(r.run.Nanoseconds()) / 1e3 / ops }))
	e := cold.exact
	// setup_s is sampled on its own, after the timed reps: a set-up
	// takes milliseconds, so the few a run's reps perform give a noisy
	// median. A sample builds instances exactly as a rep does and drops
	// them unrun, until it holds setupSampleMin of set-up.
	setups := make([]float64, pr.setups)
	for i := range setups {
		runtime.GC()
		var spent time.Duration
		n := 0
		for spent < setupSampleMin {
			b, err := build(d, seed, attach{})
			if err != nil {
				return res, err
			}
			spent += b.r.setup()
			n++
			b.discard()
		}
		setups[i] = spent.Seconds() / float64(n)
	}
	res.EndToEnd = []Metric{
		sampled("setup_s", "s", setups),
		usPerOp,
		sampled("host_allocs_per_op", "count", per(func(r *rep) float64 { return float64(r.mallocs) / ops })),
		exactly("virt_makespan_s", "s", e.makespan.Seconds()),
		exactly("virt_cycle_mean_ms", "ms", ms(e.cycleMean)),
	}
	if d.kind != kindBatch {
		tail := exactly("virt_dyn_p99_ms", "ms", ms(e.dynTail))
		tail.Note = tailNote(e.dynTailQ, e.dynSamples)
		res.EndToEnd = append(res.EndToEnd, exactly("virt_dyn_p50_ms", "ms", ms(e.dynP50)), tail)
	}
	if d.kind == kindServe {
		qw := exactly("virt_queue_wait_p99_ms", "ms", ms(e.queueWait))
		qw.Note = tailNote(e.queueWaitQ, cold.exact.ops)
		res.EndToEnd = append(res.EndToEnd, qw)
	}
	res.EndToEnd = append(res.EndToEnd, exactly("ops_failed_share", "ratio", float64(cold.exact.failed)/ops))

	if pr.traced {
		tr, err := runRep(d, seed, attach{telemetry: true}, true)
		if err != nil {
			return res, err
		}
		if tr.exact != cold.exact {
			res.Problems = append(res.Problems,
				fmt.Sprintf("nondeterministic: traced rep %+v, cold rep %+v", tr.exact, cold.exact))
		}
		layers, problems := perLayer(tr, ops)
		res.PerLayer = append(res.PerLayer, layers...)
		res.Problems = append(res.Problems, problems...)
		if d.obs.audit && tr.counts["audit.breaches"] != 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("audit: %v invariant breaches", tr.counts["audit.breaches"]))
		}
		res.PerLayer = append(res.PerLayer,
			single("bench.trace_overhead_pct", "%", (tr.run.Seconds()*1e6/ops/usPerOp.Value-1)*100),
			single("host.peak_rss_mb", "MB", peakRSSMB()),
			sampled("host.gc_cycles", "count", per(func(r *rep) float64 { return float64(r.gcCycles) })),
			sampled("host.alloc_kb_per_op", "KB", per(func(r *rep) float64 { return float64(r.allocBytes) / 1024 / ops })),
			single("host.cold_run_s", "s", cold.run.Seconds()),
		)
	}
	if pr.deltas {
		rows, err := obsDeltas(d, seed)
		if err != nil {
			return res, err
		}
		res.PerLayer = append(res.PerLayer, rows...)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func tailNote(q float64, n int) string {
	if q == 0.99 {
		return ""
	}
	return fmt.Sprintf("reports p%.4g: only %d samples", q*100, n)
}

// perLayer turns the traced rep into per-layer rows: exact counts,
// the CPU split of its profile, and dacperf's own phase spans.
func perLayer(tr *rep, ops float64) (rows []Metric, problems []string) {
	for _, name := range countNames {
		m := exactly(name, countUnit(name), tr.counts[name])
		if name == "sim.ns_per_event" {
			m.Exact = false // host time over an exact count
		}
		rows = append(rows, m)
	}

	// total is summed from the profile's raw sample records, the rows
	// from the resolved stacks: a sample lost on the way to a row, or
	// charged to a layer that has none, makes the two differ.
	samples, total, err := decodeProfile(tr.profile)
	if err != nil {
		problems = append(problems, err.Error())
	}
	split := cpuSplit(samples)
	var sum int64
	for _, layer := range cpuLayers {
		rows = append(rows, single(cpuRowName(layer), "us", float64(split[layer])/1e3/ops))
		sum += split[layer]
	}
	rows = append(rows, single("host.cpu_us_per_op", "us", float64(total)/1e3/ops))
	if sum != total {
		problems = append(problems, fmt.Sprintf("cpu split: layers sum to %d ns, profile holds %d ns", sum, total))
	}

	sp := tr.spans
	rows = append(rows,
		single("span.generate_s", "s", sp.generate.Seconds()),
		single("span.build_s", "s", sp.build.Seconds()),
		single("span.submit_s", "s", sp.submit.Seconds()),
		single("span.drain_s", "s", sp.drain.Seconds()),
		single("span.teardown_s", "s", sp.teardown.Seconds()),
	)
	return rows, problems
}

// cpuRowName is the metric name of a layer's row in the CPU split:
// sim.cpu_us_per_op, and host.gc_cpu_us_per_op for the host rows.
func cpuRowName(layer string) string {
	if pre, ok := strings.CutPrefix(layer, "host."); ok {
		return "host." + pre + "_cpu_us_per_op"
	}
	return layer + ".cpu_us_per_op"
}

// obsDeltas prices each observability subsystem on its own: the
// workload's input with exactly one subsystem attached over the same
// input bare.
func obsDeltas(d workloadDef, seed uint64) ([]Metric, error) {
	d.obs = attach{}
	bare, err := runRep(d, seed, attach{}, false)
	if err != nil {
		return nil, err
	}
	var rows []Metric
	for _, one := range []struct {
		name string
		a    attach
	}{
		{"telemetry.overhead_x", attach{telemetry: true, scrape: true}},
		{"audit.overhead_x", attach{audit: true}},
		{"trace.overhead_x", attach{trace: true}},
	} {
		r, err := runRep(d, seed, one.a, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, single(one.name, "x", r.run.Seconds()/bare.run.Seconds()))
	}
	return rows, nil
}

// peakRSSMB reads the process's high-water resident set from the
// kernel; 0 where /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
