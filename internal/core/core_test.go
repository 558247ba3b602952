package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestFig7aShape(t *testing.T) {
	pts, err := Fig7a(cluster.Default(), 6, 2, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, pt := range pts {
		if pt.Accelerators != i+1 {
			t.Errorf("point %d: accelerators = %d", i, pt.Accelerators)
		}
		if pt.Waiting <= pt.Connect {
			t.Errorf("x=%d: waiting %v should dominate connect %v", pt.Accelerators, pt.Waiting, pt.Connect)
		}
		if pt.Total <= 0 || pt.Total > time.Second {
			t.Errorf("x=%d: total %v out of sub-second range", pt.Accelerators, pt.Total)
		}
		if i > 0 && pt.Waiting <= pts[i-1].Waiting {
			t.Errorf("waiting not increasing: x=%d %v vs x=%d %v", pt.Accelerators, pt.Waiting, pts[i-1].Accelerators, pts[i-1].Waiting)
		}
	}
	// Paper magnitude: ~0.3s for 6 statically allocated accelerators.
	if tot := pts[5].Total; tot < 150*time.Millisecond || tot > 500*time.Millisecond {
		t.Errorf("total(6) = %v, want ≈0.3s", tot)
	}
}

func TestFig7bShape(t *testing.T) {
	pts, err := Fig7b(cluster.Default(), 6, 1, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if pt.Batch <= pt.MPI {
			t.Errorf("y=%d: batch %v should dominate MPI %v", pt.Accelerators, pt.Batch, pt.MPI)
		}
		if pt.Total > time.Second {
			t.Errorf("y=%d: total %v exceeds sub-second claim", pt.Accelerators, pt.Total)
		}
		if i > 0 {
			if pt.Batch <= pts[i-1].Batch {
				t.Errorf("batch share not increasing at y=%d", pt.Accelerators)
			}
			// MPI share stays roughly constant (parallel spawn).
			diff := pt.MPI - pts[i-1].MPI
			if diff < 0 {
				diff = -diff
			}
			if diff > pt.MPI/3 {
				t.Errorf("MPI share not flat: y=%d %v vs y=%d %v", pt.Accelerators, pt.MPI, pts[i-1].Accelerators, pts[i-1].MPI)
			}
		}
	}
	// Dynamic allocation costs more than static AC_Init (paper
	// contrast between Figures 7(a) and 7(b)).
	static, err := Fig7a(cluster.Default(), 1, 1, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Total <= static[0].Total {
		t.Errorf("dynamic(1) %v should exceed static init(1) %v", pts[0].Total, static[0].Total)
	}
}

func TestFig8LoadIncreasesWaiting(t *testing.T) {
	pts, err := Fig8(cluster.Default(), []int{0, 16, 20}, 1, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].SchedOther != 0 {
		t.Errorf("load 0 should have zero scheduler-other time, got %v", pts[0].SchedOther)
	}
	if pts[1].SchedOther <= 0 {
		t.Errorf("load 16 scheduler-other = %v, want > 0", pts[1].SchedOther)
	}
	if pts[2].Total <= pts[1].Total || pts[1].Total <= pts[0].Total {
		t.Errorf("totals not increasing with load: %v", pts)
	}
	for _, pt := range pts {
		if pt.Service != pts[0].Service {
			t.Errorf("service share should be the load-0 baseline: %+v", pt)
		}
		if pt.Total > 2*time.Second {
			t.Errorf("load %d total %v unreasonably large", pt.Load, pt.Total)
		}
	}
}

func TestFig9Staircase(t *testing.T) {
	pts, err := Fig9(cluster.Default(), 1, cluster.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].Node != "A" || pts[1].Node != "B" || pts[2].Node != "C" {
		t.Fatalf("points = %+v", pts)
	}
	if !(pts[0].Total < pts[1].Total && pts[1].Total < pts[2].Total) {
		t.Fatalf("no staircase: A=%v B=%v C=%v", pts[0].Total, pts[1].Total, pts[2].Total)
	}
	// Steps should be comparable (serial servicing of equal requests).
	s1 := pts[1].Total - pts[0].Total
	s2 := pts[2].Total - pts[1].Total
	ratio := float64(s2) / float64(s1)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("staircase steps unequal: %v vs %v", s1, s2)
	}
	if pts[2].Total > time.Second {
		t.Errorf("C = %v, paper reports sub-second", pts[2].Total)
	}
}

func TestTables(t *testing.T) {
	pts7a := []Fig7aPoint{{Accelerators: 1, Waiting: time.Millisecond, Connect: time.Millisecond, Total: 2 * time.Millisecond}}
	pts7b := []Fig7bPoint{{Accelerators: 1, Batch: time.Millisecond, MPI: time.Millisecond, Total: 2 * time.Millisecond}}
	pts8 := []Fig8Point{{Load: 16, SchedOther: time.Millisecond, Service: time.Millisecond, Total: 2 * time.Millisecond}}
	pts9 := []Fig9Point{{Node: "A", Total: time.Millisecond}}
	var b strings.Builder
	if err := Fig7aTable(pts7a).Render(&b); err != nil || !strings.Contains(b.String(), "AC_Init") {
		t.Errorf("7a table: %v %q", err, b.String())
	}
	b.Reset()
	if err := Fig7bTable(pts7b).Render(&b); err != nil || !strings.Contains(b.String(), "dynamic request") {
		t.Errorf("7b table: %v", err)
	}
	b.Reset()
	if err := Fig8Table(pts8).Render(&b); err != nil || !strings.Contains(b.String(), "under load") {
		t.Errorf("8 table: %v", err)
	}
	b.Reset()
	if err := Fig9Table(pts9).Render(&b); err != nil || !strings.Contains(b.String(), "three compute nodes") {
		t.Errorf("9 table: %v", err)
	}
}
