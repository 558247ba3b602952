package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the keys of the root BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeAllWorkloads runs the six workloads at toy sizes through
// the same measure() the real sizes use and checks the report's shape
// against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	toy := workloads(true)
	if len(bf.Workloads) != len(toy) {
		t.Fatalf("BENCHMARK.json lists %d workloads, dacperf defines %d", len(bf.Workloads), len(toy))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	jobsDone := map[string]float64{}
	for i, d := range toy {
		if bf.Workloads[i].Name != d.name {
			t.Errorf("BENCHMARK.json workload %d is %q, dacperf's is %q", i, bf.Workloads[i].Name, d.name)
		}
		res, err := measure(d, 1, protocol{reps: 2, setups: 2, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", d.name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}

		seen := map[string]int{}
		for _, m := range append(append([]Metric(nil), res.EndToEnd...), res.PerLayer...) {
			seen[m.Name]++
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: metric name %q", d.name, m.Name)
			}
		}
		for name, n := range seen {
			if n != 1 {
				t.Errorf("%s: %s emitted %d times", d.name, name, n)
			}
		}
		// The driver lines carry exactly the names BENCHMARK.json lists.
		for _, side := range []struct {
			traced bool
			want   []struct{ Name string }
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			got := driverLine(res, side.traced).Metrics
			for _, w := range side.want {
				if _, ok := got[w.Name]; !ok {
					t.Errorf("%s trace=%v: %s missing", d.name, side.traced, w.Name)
				}
				delete(got, w.Name)
			}
			for name := range got {
				t.Errorf("%s trace=%v: %s printed but not in BENCHMARK.json", d.name, side.traced, name)
			}
		}

		var sum float64
		for _, layer := range cpuLayers {
			name := cpuRowName(layer)
			m, ok := findMetric(res.PerLayer, name)
			if !ok {
				t.Errorf("%s: %s missing", d.name, name)
			}
			sum += m.Value
		}
		total, _ := findMetric(res.PerLayer, "host.cpu_us_per_op")
		if math.Abs(sum-total.Value) > 0.01*total.Value {
			t.Errorf("%s: cpu rows sum to %v, host.cpu_us_per_op is %v", d.name, sum, total.Value)
		}

		again, err := measure(d, 1, protocol{reps: 1, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.EndToEnd {
			if m2, _ := findMetric(again.EndToEnd, m.Name); m.Exact && m2.Value != m.Value {
				t.Errorf("%s: %s was %v, then %v", d.name, m.Name, m.Value, m2.Value)
			}
		}
		done, _ := findMetric(res.PerLayer, "pbs.jobs_done")
		jobsDone[d.name] = done.Value
	}
	if jobsDone["batch-wide"] != jobsDone["sharded-wide"] || jobsDone["batch-wide"] == 0 {
		t.Errorf("pbs.jobs_done: batch-wide %v, sharded-wide %v", jobsDone["batch-wide"], jobsDone["sharded-wide"])
	}
}

func TestGeneratorsFollowSeed(t *testing.T) {
	ws := workloads(false)
	for _, d := range ws {
		a, b, c := d.generate(1), d.generate(1), d.generate(2)
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 gave digests %x and %x", d.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", d.name, a.digest)
		}
	}
	wide, _ := findWorkload(ws, "batch-wide")
	sharded, _ := findWorkload(ws, "sharded-wide")
	if wide.generate(1).swf != sharded.generate(1).swf {
		t.Error("sharded-wide's input is not byte-identical to batch-wide's")
	}
}

var spinSink uint64

// spin burns CPU under a name the decoded profile must contain. The
// loop works on a local: under -race every write to a global calls
// into the race runtime, whose samples carry no Go stack.
func spin(d time.Duration) {
	var x uint64
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1<<16; i++ {
			x += uint64(i) * 2654435761
		}
	}
	spinSink = x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, total, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	split := cpuSplit(samples)
	var inSpin, inStacks int64
	for _, s := range samples {
		inStacks += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	// 300 ms at 100 Hz is ~30 samples of 10 ms; allow a slow host half.
	if inSpin < (100 * time.Millisecond).Nanoseconds() {
		t.Errorf("spin holds %d ns of %d ns in %d samples", inSpin, total, len(samples))
	}
	if split["bench"] < inSpin {
		t.Errorf("bench row %d ns < spin's %d ns", split["bench"], inSpin)
	}
	if inStacks != total {
		t.Errorf("samples hold %d ns, the profile's records %d ns", inStacks, total)
	}
	if _, _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend", "repro/internal/sim.(*Simulation).Sleep", "repro/internal/pbs.(*Mom).run", "repro/internal/sim.(*Simulation).Go.func1"}, "sim"},
		{[]string{"runtime.mapaccess2", "repro/internal/pbs.(*Server).nodeViewIntoLocked", "repro/internal/sim.(*Simulation).Go.func1"}, "pbs"},
		{[]string{"repro/internal/metrics.(*Sample).Add", "repro/internal/trace.(*Tracer).Observe", "repro/internal/maui.(*Scheduler).runCycle"}, "trace"},
		{[]string{"runtime.mallocgc", "main.genSWF", "main.runRep"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "host.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "host.runtime"},
		{nil, "host.runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	host, _ := specOf("host_us_per_op")
	setup, _ := specOf("setup_s")
	allocs, _ := specOf("host_allocs_per_op")
	virt, _ := specOf("virt_makespan_s")
	m := func(vs ...float64) Metric { return sampled("m", "u", vs) }
	for _, tc := range []struct {
		name   string
		spec   e2eSpec
		a, b   Metric
		pooled bool
		want   string
	}{
		{"within bound", host, m(99, 100, 101), m(104, 105, 106), true, verdictSame},
		{"over bound", host, m(99, 100, 101), m(114, 115, 116), true, verdictWorse},
		{"under bound", host, m(99, 100, 101), m(84, 85, 86), true, verdictBetter},
		{"wide spread, runs overlap", host, m(80, 100, 120), m(90, 112, 130), true, verdictUnresolved},
		{"wide spread in B only", host, m(99, 100, 101), m(70, 95, 125), true, verdictUnresolved},
		{"wide spread, every run better", host, m(100, 120, 140), m(60, 75, 90), true, verdictBetter},
		{"wide spread, every run worse", host, m(60, 75, 90), m(100, 120, 140), true, verdictWorse},
		{"absolute slack covers small setups", setup, m(0.003), m(0.02), true, verdictSame},
		{"setup over both bounds", setup, m(0.04), m(0.08), true, verdictWorse},
		// One report per side cannot tell a slower program from a slower
		// minute: wall-clock rows stay unresolved however far apart they
		// read. Counts and exact metrics do not move with the host.
		{"wall clock, one report per side", host, m(99, 100, 101), m(199, 200, 201), false, verdictUnresolved},
		{"setup, one report per side", setup, m(0.04), m(0.08), false, verdictUnresolved},
		{"count, one report per side", allocs, m(73.3, 73.5, 73.9), m(80.1, 80.2, 80.3), false, verdictWorse},
		{"exact equal", virt, exactly("m", "s", 143.2574), exactly("m", "s", 143.2574), false, verdictSame},
		{"exact moved up", virt, exactly("m", "s", 143.2574), exactly("m", "s", 143.2575), false, verdictWorse},
		{"exact moved down", virt, exactly("m", "s", 143.2574), exactly("m", "s", 143.2), false, verdictBetter},
	} {
		if got := judge(tc.spec, tc.a, tc.b, tc.pooled); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsExitCode(t *testing.T) {
	wl := func(us float64) WorkloadResult {
		return WorkloadResult{Name: "w", InputDigest: "d", EndToEnd: []Metric{
			sampled("host_us_per_op", "us", []float64{us - 1, us, us + 1}),
			exactly("virt_makespan_s", "s", 10),
		}}
	}
	report := func(us float64) *Report { return &Report{Seed: 1, Workloads: []WorkloadResult{wl(us)}} }
	var out bytes.Buffer
	if code := compareReports(&out, report(100), report(103), true); code != 0 {
		t.Errorf("same-within-bound compare exited %d:\n%s", code, out.String())
	}
	if code := compareReports(&out, report(100), report(130), true); code != 1 {
		t.Errorf("worse compare exited %d", code)
	}
	if code := compareReports(&out, report(100), report(130), false); code != 0 {
		t.Errorf("compare of single reports called a wall-clock row worse: exit %d", code)
	}
	if code := compareReports(&out, report(100), &Report{Seed: 1}, true); code != 1 {
		t.Errorf("compare against a report missing the workload exited %d", code)
	}

	// A side of several reports pools their samples and insists that
	// they agree on exact metrics; the files are read back as written.
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		path := dir + "/" + name
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1, p2 := write("1.json", report(100)), write("2.json", report(120))
	side, n, err := readSide(p1 + "," + p2)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := findMetric(side.Workloads[0].EndToEnd, "host_us_per_op"); n != 2 || m.N != 6 || m.Value != 110 {
		t.Errorf("pooled host_us_per_op: %d reports, n=%d median=%v, want 2, 6 and 110", n, m.N, m.Value)
	}
	if code := compareFiles(&out, p1+","+p2, p1+","+p2); code != 0 {
		t.Errorf("a pooled side against itself exited %d", code)
	}
	moved := report(100)
	moved.Workloads[0].EndToEnd[1] = exactly("virt_makespan_s", "s", 11)
	if _, _, err := readSide(p1 + "," + write("3.json", moved)); err == nil {
		t.Error("pooling reports that disagree on an exact metric gave no error")
	}
}
