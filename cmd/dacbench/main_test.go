package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestVms(t *testing.T) {
	if got := vms(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("vms = %v, want 1.5", got)
	}
}

func report(series map[string]float64) *Report {
	return &Report{SchemaVersion: 1, Trials: 3, Series: series}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := report(map[string]float64{"a": 100, "b": 0, "gone": 5})
	cand := report(map[string]float64{"a": 110, "b": 0, "new": 7})
	if failures := compare(base, cand, 0.15); len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	base := report(map[string]float64{"a": 100, "b": 0})
	cand := report(map[string]float64{"a": 130, "b": 2})
	failures := compare(base, cand, 0.15)
	if len(failures) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(failures), failures)
	}
}

// Allocs series gate one-sided and exactly: any growth fails, a drop
// passes, and the virtual-time tolerance does not apply to them.
func TestCompareAllocsGrowth(t *testing.T) {
	base := report(map[string]float64{"a": 100})
	base.Allocs = map[string]float64{"kernel/x": 0, "telemetry/y": 110}
	cand := report(map[string]float64{"a": 100})
	cand.Allocs = map[string]float64{"kernel/x": 0, "telemetry/y": 90}
	if failures := compare(base, cand, 0.5); len(failures) != 0 {
		t.Fatalf("drop failed: %v", failures)
	}
	cand.Allocs["kernel/x"] = 1
	if failures := compare(base, cand, 0.5); len(failures) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(failures), failures)
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

// A recorded report must carry every figure and scale series and be
// self-consistent against itself under compare.
func TestRecordSelfConsistent(t *testing.T) {
	rep, err := record(1, []int{8}, []int{8}, []benchServePoint{{8, "faithful"}})
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
	if failures := compare(rep, rep, 0.0); len(failures) != 0 {
		t.Fatalf("report deviates from itself: %v", failures)
	}
}
