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

// A recorded report must carry every figure and scale series, and the
// ones results/pins.json also holds — every figure series plus the
// 8-node scale rungs — must equal their pins exactly.
func TestRecordMatchesBaseline(t *testing.T) {
	series, err := record([]int{8}, []int{8}, []benchServePoint{{8, repro.ServerFaithful}})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	for _, want := range []string{
		"fig7a/total/acs=6", "fig7b/total/acs=6", "fig8/total/load=20",
		"fig9/total/node=C", "scale/cycle_mean/cns=8", "scale/dyn_latency/cns=8",
		"scale_sharded/cycle_mean/cns=8", "scale_sharded/dyn_p99/cns=8",
		"serve/makespan/cns=8/mode=faithful",
	} {
		if _, ok := series[want]; !ok {
			t.Fatalf("series %q missing from the record", want)
		}
	}
	p, err := loadPins(filepath.Join("..", "..", "results", "pins.json"))
	if err != nil {
		t.Fatal(err)
	}
	shared := map[string]float64{}
	for name := range series {
		if v, ok := p.Virtual[name]; ok {
			shared[name] = v
		}
	}
	if len(shared) != 42 {
		t.Errorf("%d series shared with the virtual pins, want 42", len(shared))
	}
	checkExact(series, shared, func(format string, a ...any) { t.Errorf(format, a...) })
}

// Violations print in key order whatever order the pins' map yields
// them in: the two keys go in in reverse, and a small map iterates in
// insertion order rotated by a random slot, so thirty checks without the
// sort would all come out sorted only by a chance of 8^-30.
func TestCheckExactReportsInKeyOrder(t *testing.T) {
	for i := 0; i < 30; i++ {
		exact := map[string]float64{}
		exact["z.late"] = 1
		exact["a.early"] = 1
		var bad []string
		checkExact(map[string]float64{}, exact, func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) })
		if want := []string{"a.early = missing, pinned 1", "z.late = missing, pinned 1"}; strings.Join(bad, "; ") != strings.Join(want, "; ") {
			t.Fatalf("violations %q, want %q", bad, want)
		}
	}
}

// Every rule of -check fails its case, and each failure line names the
// key and the value it read; the pristine inputs pass, and so does an
// md5-only run, which need not supply dacperf lines or a record.
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
	virtual := write("virtual.json", `{"fig7a/total/acs=1": 97.600816, "fig9/total/node=C": 22.800816}`)
	shifted := write("shifted.json", `{"fig7a/total/acs=1": 97.600817, "fig9/total/node=C": 22.800816}`)
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
			Virtual: map[string]float64{"fig7a/total/acs=1": 97.600816, "fig9/total/node=C": 22.800816},
		}
	}
	md5In := []string{"figs=" + figs, "scale-sharded-4096=" + scale}
	all := append([]string{"w@trace1=" + good, "w@trace0=" + good, "v@trace1=" + good}, md5In...)
	all = append(all, "virtual="+virtual)
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
		{name: "virtual series off by 1e-6",
			inputs: append(all[:len(all)-1:len(all)-1], "virtual="+shifted),
			want:   "virtual: fig7a/total/acs=1 = 97.600817, pinned 97.600816"},
		{name: "virtual series missing", inputs: all,
			edit: func(p *pins) { p.Virtual["fig8/total/load=20"] = 506.8 },
			want: "virtual: fig8/total/load=20 = missing, pinned 506.8"},
		{name: "virtual series with no pin", inputs: all,
			edit: func(p *pins) { delete(p.Virtual, "fig9/total/node=C") },
			want: "virtual: fig9/total/node=C = 22.800816, no pin"},
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
