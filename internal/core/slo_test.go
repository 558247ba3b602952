package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// sloTestSizes keeps the unit tests fast: one small ladder point.
// The CI smoke job runs the full 64→256 ladder through dacsim.
var sloTestSizes = []int{32}

func TestSLOPointShape(t *testing.T) {
	pts, err := SLO(cluster.Default(), sloTestSizes, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	pt := pts[0]
	if pt.ComputeNodes != 32 || pt.Accelerators != 32*ACsPerCN || pt.Jobs != 32*JobsPerCN {
		t.Fatalf("point shape: %+v", pt)
	}
	if pt.Probers != sloProbers(32) {
		t.Fatalf("probers = %d, want %d", pt.Probers, sloProbers(32))
	}
	if want := pt.Probers * sloStream.reqs; pt.DynGranted != want {
		t.Fatalf("dyn granted = %d, want %d (all paced requests served)", pt.DynGranted, want)
	}
	if len(pt.Obs.Windows) < 2 {
		t.Fatalf("only %d scrape windows", len(pt.Obs.Windows))
	}
	if pt.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	// The scrape series covers the run: the last window ends at the
	// makespan (Stop takes a final partial window).
	last := pt.Obs.Windows[len(pt.Obs.Windows)-1]
	if last.End != pt.Makespan {
		t.Fatalf("last window ends at %v, makespan %v", last.End, pt.Makespan)
	}
	if len(pt.Compliance) != len(SLOObjectives()) {
		t.Fatalf("%d compliance rows, want %d", len(pt.Compliance), len(SLOObjectives()))
	}
	if pt.Obs.Prom == "" || !strings.Contains(pt.Obs.Prom, "pbs_dyn_latency") {
		t.Fatalf("prometheus exposition missing dyn-latency summary:\n%.400s", pt.Obs.Prom)
	}
}

// The deliberately tight scheduler-occupancy objective must breach —
// it is the figure's demonstration of the first-breach timestamp —
// while the calibrated latency objectives hold.
func TestSLOObjectivesCalibration(t *testing.T) {
	pts, err := SLO(cluster.Default(), sloTestSizes, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]telemetry.Compliance{}
	for _, c := range pts[0].Compliance {
		byName[c.Objective.Name] = c
	}
	for _, name := range []string{"dyn-p50", "dyn-p99", "cycle-mean"} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("objective %q missing", name)
		}
		if !c.Compliant {
			t.Errorf("%s: breached (worst %.4f, first %v), want compliant", name, c.Worst, c.First)
		}
	}
	occ, ok := byName["sched-occupancy"]
	if !ok {
		t.Fatal("sched-occupancy objective missing")
	}
	if occ.Compliant {
		t.Fatalf("sched-occupancy: compliant (worst %.4f), want the deliberate breach", occ.Worst)
	}
	if occ.First < 0 {
		t.Fatal("sched-occupancy: no first-breach timestamp")
	}
	if occ.First%cluster.ObserveInterval != 0 {
		t.Errorf("first breach at %v, want a window edge (interval %v)", occ.First, cluster.ObserveInterval)
	}
}

func TestSLOTablesRender(t *testing.T) {
	pts, err := SLO(cluster.Default(), sloTestSizes, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := SLOTable(pts).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "slo_met") {
		t.Fatalf("overview table:\n%s", b.String())
	}
	b.Reset()
	if err := SLOComplianceTable(pts).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"sched-occupancy", "first_breach_ms", "maui.occupancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compliance table missing %q:\n%s", want, out)
		}
	}
}

func TestSLORejectsBadSize(t *testing.T) {
	if _, err := SLO(cluster.Default(), []int{0}, cluster.Observers{}); err == nil {
		t.Fatal("want error for size 0")
	}
}

// The slo figure — tables, the JSONL scrape series, and the
// Prometheus page — must be byte-identical at every parallelism
// level: each size runs on a private simulation with a private
// registry, and results reduce in index order.
func TestSLOIdenticalAcrossParallelism(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	p := cluster.Default()
	sizes := []int{16, 32}

	render := func(pts []SLOPoint) string {
		var b bytes.Buffer
		if err := SLOTable(pts).Render(&b); err != nil {
			t.Fatal(err)
		}
		if err := SLOComplianceTable(pts).Render(&b); err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			if err := capture.Write(&b, &pt.Obs.File); err != nil {
				t.Fatal(err)
			}
			b.WriteString(pt.Obs.Prom)
		}
		return b.String()
	}

	SetParallelism(1)
	serial, err := SLO(p, sizes, cluster.Observers{})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	SetParallelism(4)
	par, err := SLO(p, sizes, cluster.Observers{})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}

	a, b := render(serial), render(par)
	if a != b {
		t.Fatalf("slo output differs across parallelism:\n--- serial ---\n%.2000s\n--- parallel ---\n%.2000s", a, b)
	}
}

func TestSLOProbersFloor(t *testing.T) {
	for n, want := range map[int]int{8: 2, 32: 2, 64: 2, 128: 4, 256: 8} {
		if got := sloProbers(n); got != want {
			t.Errorf("sloProbers(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSLOScrapeWindowsAligned(t *testing.T) {
	pts, err := SLO(cluster.Default(), sloTestSizes, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range pts[0].Obs.Windows {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if i < len(pts[0].Obs.Windows)-1 && w.End-w.Start != cluster.ObserveInterval {
			t.Fatalf("window %d spans %v, want %v", i, w.End-w.Start, cluster.ObserveInterval)
		}
		if i > 0 && w.Start != pts[0].Obs.Windows[i-1].End {
			t.Fatalf("window %d starts at %v, previous ended at %v", i, w.Start, pts[0].Obs.Windows[i-1].End)
		}
	}
}
