package main

import (
	"os"
	"path/filepath"
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
