package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

func TestVms(t *testing.T) {
	if got := vms(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("vms = %v, want 1.5", got)
	}
}

func report(series map[string]float64) *Report {
	return &Report{SchemaVersion: 1, Trials: 3, Series: series}
}

// Series on one side only are noted, not failed; equal shared series,
// zeros included, pass.
func TestCompareIgnoresUnsharedSeries(t *testing.T) {
	base := report(map[string]float64{"a": 100, "b": 0, "gone": 5})
	cand := report(map[string]float64{"a": 100, "b": 0, "new": 7})
	shared, failures := compare(base, cand)
	if shared != 2 || len(failures) != 0 {
		t.Fatalf("%d shared series, failures %v; want 2 and none", shared, failures)
	}
}

// Any difference in a shared series fails, however small.
func TestCompareDetectsRegression(t *testing.T) {
	base := report(map[string]float64{"a": 100, "b": 0})
	cand := report(map[string]float64{"a": 100.001, "b": 2})
	if _, failures := compare(base, cand); len(failures) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(failures), failures)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema_version":1,"trials":3,"series_virtual_ms":{"a":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.Series["a"] != 1 {
		t.Fatalf("series = %v", rep.Series)
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("load of missing file succeeded")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(empty); err == nil {
		t.Fatal("load of series-less report succeeded")
	}
}

// A recorded report must carry every figure and scale series, and the
// ones the committed baseline also holds — every figure series plus the
// 8-node scale rungs — must equal it exactly.
func TestRecordMatchesBaseline(t *testing.T) {
	rep, err := record(3, []int{8}, []int{8}, []benchServePoint{{8, repro.ServerFaithful}})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	for _, want := range []string{
		"fig7a/total/acs=6", "fig7b/total/acs=6", "fig8/total/load=20",
		"fig9/total/node=C", "scale/cycle_mean/cns=8", "scale/dyn_latency/cns=8",
		"scale_sharded/cycle_mean/cns=8", "scale_sharded/dyn_p99/cns=8",
		"serve/makespan/cns=8/mode=faithful",
	} {
		if _, ok := rep.Series[want]; !ok {
			t.Fatalf("series %q missing from recorded report", want)
		}
	}
	baseline, err := load(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	shared, failures := compare(baseline, rep)
	if shared != 42 {
		t.Errorf("%d series shared with the baseline, want 42", shared)
	}
	if len(failures) != 0 {
		t.Fatalf("report differs from BENCH_baseline.json: %v", failures)
	}
}

// Every rule of -check fails its case, and each failure line names the
// key and the value it read; the pristine inputs pass, and so does an
// md5-only run, which need not supply dacperf lines.
func TestCheckPins(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	figs := write("figs.jsonl", "one capture\n")
	scale := write("scale.txt", "one ladder\n")
	perf := func(name string, correct bool, failed int) string {
		return write(name, fmt.Sprintf(`{"correct":%v,"attempted":8,"failed":%d,"metrics":{`+
			`"sim.events":{"value":2717934,"unit":"count"},"host_allocs_per_op":{"value":76.2,"unit":"count"}}}`,
			correct, failed))
	}
	good := perf("good.json", true, 0)
	pristine := func() *pins {
		return &pins{
			MD5: map[string]string{
				"figs":               "284d5db3f032db8b708c5eeb64f69a37",
				"scale-sharded-4096": "3be655b49486a758a69f5e8ff6b9f692",
			},
			Dacperf: map[string]perfPin{
				"w@trace1": {Exact: map[string]float64{"sim.events": 2717934}},
				"w@trace0": {Max: map[string]float64{"host_allocs_per_op": 83.8}},
				"v@trace1": {},
			},
		}
	}
	md5In := []string{"figs=" + figs, "scale-sharded-4096=" + scale}
	all := append([]string{"w@trace1=" + good, "w@trace0=" + good, "v@trace1=" + good}, md5In...)
	for _, tc := range []struct {
		name   string
		edit   func(p *pins)
		inputs []string
		want   string // a substring of the one violation; "" for none
	}{
		{name: "pristine", inputs: all},
		{name: "md5 only", inputs: md5In},
		{name: "md5 off by one hex digit", inputs: all,
			edit: func(p *pins) { p.MD5["figs"] = "284d5db3f032db8b708c5eeb64f69a38" },
			want: "figs: md5 284d5db3f032db8b708c5eeb64f69a37, pinned 284d5db3f032db8b708c5eeb64f69a38"},
		{name: "exact count off by one", inputs: all,
			edit: func(p *pins) { p.Dacperf["w@trace1"].Exact["sim.events"]++ },
			want: "w@trace1: sim.events = 2717934, pinned 2717935"},
		{name: "ceiling below the reading", inputs: all,
			edit: func(p *pins) { p.Dacperf["w@trace0"].Max["host_allocs_per_op"] = 76.1 },
			want: "w@trace0: host_allocs_per_op = 76.2, ceiling 76.1"},
		{name: "pinned metric missing", inputs: all,
			edit: func(p *pins) { p.Dacperf["w@trace1"].Exact["maui.cycles"] = 15531 },
			want: "w@trace1: maui.cycles = missing"},
		{name: "correct false",
			inputs: append([]string{"v@trace1=" + perf("incorrect.json", false, 0)}, all[:2]...),
			want:   "v@trace1: correct = false"},
		{name: "failed op",
			inputs: append([]string{"v@trace1=" + perf("failed.json", true, 1)}, all[:2]...),
			want:   `v@trace1: failed = "1", want 0`},
		{name: "input with no pin", inputs: append([]string{"u@trace1=" + good}, all...),
			want: "u@trace1: no pin"},
		{name: "pin with no input", inputs: all[1:],
			want: "w@trace1: pinned, no input"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pristine()
			if tc.edit != nil {
				tc.edit(p)
			}
			bad := checkPins(p, tc.inputs)
			switch {
			case tc.want == "" && len(bad) != 0:
				t.Fatalf("violations %q, want none", bad)
			case tc.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.want)):
				t.Fatalf("violations %q, want one containing %q", bad, tc.want)
			}
		})
	}
	if _, err := loadPins(filepath.Join("..", "..", "results", "pins.json")); err != nil {
		t.Fatalf("results/pins.json: %v", err)
	}
}
