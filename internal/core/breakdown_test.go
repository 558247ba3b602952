package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/prof"
)

// The breakdown experiment's core guarantee: for every job of every
// ladder size, the per-phase attribution sums exactly (in integer
// virtual-time nanoseconds) to the job's end-to-end latency. That the
// figure, span streams included, is the same at any parallelism is
// TestReplayCorpus's breakdown row.
func TestBreakdownPhasesSumExactly(t *testing.T) {
	sizes := []int{8, 32}
	pts, err := Breakdown(cluster.Default(), sizes, ServerFaithful, cluster.Observers{})
	if err != nil {
		t.Fatalf("Breakdown: %v", err)
	}
	for i, pt := range pts {
		profile := prof.Analyze(pt.Obs.Spans)
		if len(profile.Jobs) == 0 || len(profile.Dyns) == 0 {
			t.Fatalf("size %d: %d jobs, %d dyn requests profiled", sizes[i], len(profile.Jobs), len(profile.Dyns))
		}
		if len(profile.Incomplete) != 0 {
			t.Errorf("size %d: incomplete chains: %v", sizes[i], profile.Incomplete)
		}
		for _, j := range profile.Jobs {
			var sum time.Duration
			for _, ph := range j.Phases {
				sum += ph.Dur
			}
			if sum != j.Total() {
				t.Errorf("size %d job %s: phases sum to %v, end-to-end is %v",
					sizes[i], j.ID, sum, j.Total())
			}
		}
		for _, d := range profile.Dyns {
			var sum time.Duration
			for _, ph := range d.Phases {
				sum += ph.Dur
			}
			if sum != d.Total {
				t.Errorf("size %d dyn %d: phases sum to %v, envelope is %v",
					sizes[i], d.ReqID, sum, d.Total)
			}
		}
		if pt.Jobs != sizes[i]*JobsPerCN+1 { // trace jobs + probe
			t.Errorf("size %d: attributed %d jobs, want %d", sizes[i], pt.Jobs, sizes[i]*JobsPerCN+1)
		}
		if len(pt.Dyn) != len(prof.DynPhases) || pt.DynTotal <= 0 {
			t.Errorf("size %d: dynamic decomposition missing: %+v", sizes[i], pt)
		}
		if len(pt.Top) == 0 {
			t.Errorf("size %d: no critical-path owners", sizes[i])
		}
	}
}

func TestBreakdownTablesRender(t *testing.T) {
	pts := []BreakdownPoint{{
		ComputeNodes: 8, Accelerators: 64, Jobs: 65,
		Static: []prof.Phase{
			{Name: "queue", Dur: 100 * time.Millisecond},
			{Name: "run", Dur: 2 * time.Second},
		},
		Dyn: []prof.Phase{
			{Name: "dyn.queue", Dur: 80 * time.Millisecond},
			{Name: "dyn.spawn", Dur: 35 * time.Millisecond},
		},
		Total:    3 * time.Second,
		DynTotal: 150 * time.Millisecond,
	}}
	var b strings.Builder
	if err := BreakdownTable(pts).Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := DynBreakdownTable(pts).Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"compute_nodes", "queue", "dyn.spawn", "3000.0", "150.0", "-"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("tables missing %q:\n%s", want, b.String())
		}
	}
}
