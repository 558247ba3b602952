package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestParseServerMode(t *testing.T) {
	cases := []struct {
		in      string
		want    ServerMode
		wantErr bool
	}{
		{"", ServerFaithful, false},
		{"faithful", ServerFaithful, false},
		{"sharded", ServerSharded, false},
		{"SHARDED", "", true},
		{"bogus", "", true},
	}
	for _, c := range cases {
		got, err := ParseServerMode(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseServerMode(%q): expected error, got %q", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseServerMode(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestShardAndPartitionSizing(t *testing.T) {
	cases := []struct {
		n, shards, parts int
	}{
		{8, 4, 2},      // both floors
		{256, 4, 2},    // at the knee
		{1024, 16, 8},  // linear region
		{4096, 64, 32}, // both ceilings
		{100000, 64, 32},
	}
	for _, c := range cases {
		if got := ShardsFor(c.n); got != c.shards {
			t.Errorf("ShardsFor(%d) = %d, want %d", c.n, got, c.shards)
		}
		if got := PartitionsFor(c.n); got != c.parts {
			t.Errorf("PartitionsFor(%d) = %d, want %d", c.n, got, c.parts)
		}
	}
}

// The whole point of the sharded ablation: scheduler cycle time must
// stay sub-quadratic all the way to 1024 compute nodes. This is the
// scale-ladder acceptance gate; skipped under -short because the
// 1024-node replay costs a few host seconds.
func TestScaleShardedSubQuadratic1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node replay skipped in short mode")
	}
	pts, err := Scale(cluster.Default(), []int{256, 1024}, ServerSharded, cluster.Observers{})
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	small, large := pts[0], pts[1]
	if small.CycleMean <= 0 || large.CycleMean <= 0 {
		t.Fatalf("cycle means not recorded: %+v %+v", small, large)
	}
	factor := float64(large.ComputeNodes) / float64(small.ComputeNodes)
	quad := factor * factor
	if ratio := float64(large.CycleMean) / float64(small.CycleMean); ratio >= quad {
		t.Fatalf("sharded cycle time grew %.1fx over a %gx cluster growth (quadratic bound %gx)",
			ratio, factor, quad)
	}
	if ratio := float64(large.DynP99) / float64(small.DynP99); ratio >= quad {
		t.Fatalf("sharded dyn p99 grew %.1fx over a %gx cluster growth (quadratic bound %gx)",
			ratio, factor, quad)
	}
	for _, pt := range pts {
		if pt.Shards != ShardsFor(pt.ComputeNodes) || pt.Partitions != PartitionsFor(pt.ComputeNodes) {
			t.Errorf("sizing not recorded: %+v", pt)
		}
		if pt.DynP50 <= 0 || pt.DynP99 < pt.DynP50 {
			t.Errorf("dyn quantiles implausible: p50 %v p99 %v", pt.DynP50, pt.DynP99)
		}
		if pt.ShardBusy <= 0 || pt.ShardBusy > 1 {
			t.Errorf("shard busy fraction out of range: %v", pt.ShardBusy)
		}
	}
}

func TestScaleShardedTableRenders(t *testing.T) {
	pts := []ScalePoint{{
		ComputeNodes: 1024, Accelerators: 8192, Jobs: 8192,
		Shards: 16, Partitions: 8, Probers: 16,
		CycleMean: 12 * time.Millisecond, CycleMax: 19 * time.Millisecond,
		DynP50: 28 * time.Millisecond, DynP99: 57 * time.Millisecond,
		ShardBusy: 0.0123, Makespan: 72 * time.Second,
	}}
	var b strings.Builder
	if err := ScaleShardedTable(pts).Render(&b); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{"compute_nodes", "shards", "partitions", "dyn_p99_ms", "shard_busy", "0.0123", "1024"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, b.String())
		}
	}
}
