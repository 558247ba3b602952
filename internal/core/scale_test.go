package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// The scale experiment must stay usable at the target size: the
// scheduler cycle time may grow with the cluster, but sub-
// quadratically — a quadratic node-matching core (the old linear
// scans) would blow past this bound immediately.
func TestScaleCycleTimeSubQuadratic(t *testing.T) {
	pts, err := Scale(cluster.Default(), []int{8, 32}, ServerFaithful, cluster.Observers{})
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	small, large := pts[0], pts[1]
	if small.CycleMean <= 0 || large.CycleMean <= 0 {
		t.Fatalf("cycle means not recorded: %+v %+v", small, large)
	}
	factor := float64(large.ComputeNodes) / float64(small.ComputeNodes)
	ratio := float64(large.CycleMean) / float64(small.CycleMean)
	if quad := factor * factor; ratio >= quad {
		t.Fatalf("cycle time grew %.1fx over a %gx cluster growth (quadratic bound %gx)",
			ratio, factor, quad)
	}
	if large.DynLatency <= 0 {
		t.Fatalf("dynamic probe produced no latency: %+v", large)
	}
	if large.Jobs != large.ComputeNodes*JobsPerCN {
		t.Fatalf("expected %d jobs, replayed %d", large.ComputeNodes*JobsPerCN, large.Jobs)
	}
}

func TestScaleTableRenders(t *testing.T) {
	pts := []ScalePoint{{
		ComputeNodes: 8, Accelerators: 64, Jobs: 64,
		CycleMean: 11 * time.Millisecond, CycleMax: 14 * time.Millisecond,
		DynLatency: 190 * time.Millisecond, Makespan: 67 * time.Second,
	}}
	var b strings.Builder
	if err := ScaleTable(pts).Render(&b); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{"compute_nodes", "cycle_mean_ms", "dyn_latency_ms", "64"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, b.String())
		}
	}
}

// The synthetic scale workload must round-trip through the SWF
// importer exactly once per job, deterministically.
func TestScaleWorkloadSWFDeterministic(t *testing.T) {
	a := scaleWorkloadSWF(16, 128, 8, 0)
	b := scaleWorkloadSWF(16, 128, 8, 0)
	if a != b {
		t.Fatal("scale workload not deterministic")
	}
	entries, err := workload.ParseSWF(strings.NewReader(a), 8)
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if len(entries) != 128 {
		t.Fatalf("got %d entries, want 128", len(entries))
	}
	for _, e := range entries {
		if e.Nodes < 1 || e.Nodes > 2 || e.Runtime <= 0 {
			t.Fatalf("implausible entry: %+v", e)
		}
	}
}
