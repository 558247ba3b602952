package core

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
)

func serveSmoke(t *testing.T, mode ServerMode) []ServePoint {
	t.Helper()
	pts, err := Serve(cluster.Default(), []int{8, 16}, mode, 0, 5*time.Second, cluster.Observers{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return pts
}

func TestServeSmoke(t *testing.T) {
	pts := serveSmoke(t, ServerFaithful)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Submitted == 0 || pt.Completed != pt.Submitted {
			t.Fatalf("n=%d: submitted %d completed %d", pt.ComputeNodes, pt.Submitted, pt.Completed)
		}
		if pt.Dispatches == 0 || pt.Makespan <= 0 {
			t.Fatalf("n=%d: empty kernel ledger", pt.ComputeNodes)
		}
		if len(pt.Compliance) == 0 {
			t.Fatalf("n=%d: no compliance rows", pt.ComputeNodes)
		}
	}
	// Larger cluster, higher default rate, more jobs over the same
	// horizon.
	if pts[1].Submitted <= pts[0].Submitted {
		t.Fatalf("rate scaling broken: %d jobs at n=8, %d at n=16", pts[0].Submitted, pts[1].Submitted)
	}
	var table strings.Builder
	if err := ServeTable(pts).Render(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "faithful") {
		t.Fatalf("table missing mode column:\n%s", table.String())
	}
	var comp strings.Builder
	if err := ServeComplianceTable(pts).Render(&comp); err != nil {
		t.Fatal(err)
	}
	if comp.Len() == 0 {
		t.Fatal("empty compliance table")
	}
}

func TestServeShardedSmoke(t *testing.T) {
	pts := serveSmoke(t, ServerSharded)
	for _, pt := range pts {
		if pt.Completed != pt.Submitted {
			t.Fatalf("n=%d: %d/%d", pt.ComputeNodes, pt.Completed, pt.Submitted)
		}
	}
}

// TestServeMillionJobs is the acceptance soak behind the serve
// figure: one million open-loop jobs across two resident instances
// (128 and 256 compute nodes at their default rates), run once
// serially and once on four workers, with the flight recorder and
// invariant engine attached. The reports must be byte-identical
// across parallelism levels and the run must finish with zero audit
// breaches. It costs minutes of wall time, so it only runs when
// SERVE_MILLION=1 is set (the rest of the suite pins the same
// invariants at smoke scale).
func TestServeMillionJobs(t *testing.T) {
	if os.Getenv("SERVE_MILLION") == "" {
		t.Skip("set SERVE_MILLION=1 to run the million-job acceptance soak")
	}
	old := Parallelism()
	defer SetParallelism(old)
	// Default rates are n/4 jobs per virtual second: 32 + 64 = 96
	// jobs/s across the two instances, so this horizon admits ~1.04
	// million jobs.
	const horizon = 10850 * time.Second
	run := func(workers int) (string, int) {
		SetParallelism(workers)
		p := cluster.Default()
		rec := audit.New(1 << 16)
		p.Audit = rec
		pts, err := Serve(p, []int{128, 256}, ServerFaithful, 0, horizon, cluster.Observers{})
		if err != nil {
			t.Fatalf("Serve(workers=%d): %v", workers, err)
		}
		total := 0
		for _, pt := range pts {
			if pt.Completed != pt.Submitted {
				t.Fatalf("workers=%d n=%d: drained %d of %d", workers, pt.ComputeNodes, pt.Completed, pt.Submitted)
			}
			total += pt.Completed
		}
		if rec.Checks() == 0 {
			t.Fatalf("workers=%d: the recorder on Params never ran an invariant check", workers)
		}
		if br := rec.Breaches(); br != 0 {
			t.Fatalf("workers=%d: %d audit breaches", workers, br)
		}
		b, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), total
	}
	serial, n1 := run(1)
	parallel, n4 := run(4)
	if n1 < 1_000_000 {
		t.Fatalf("soak admitted only %d jobs, want >= 1000000", n1)
	}
	if serial != parallel || n1 != n4 {
		t.Fatalf("million-job reports differ between -parallel levels (%d vs %d jobs)", n1, n4)
	}
	t.Logf("served %d jobs, byte-identical at 1 and 4 workers, zero breaches", n1)
}

// The serve figure must be byte-identical at every parallelism level:
// each point is an isolated simulation, so fan-out order cannot leak
// into the reports.
func TestServeParallelInvariance(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	run := func() string {
		pts, err := Serve(cluster.Default(), []int{8, 12, 16}, ServerFaithful, 0, 4*time.Second, cluster.Observers{})
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		b, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	SetParallelism(1)
	serial := run()
	SetParallelism(4)
	parallel := run()
	if serial != parallel {
		t.Fatal("serve reports differ between -parallel levels")
	}
}
