package core

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/cluster"
)

// audited is the observer set of the audited ladder.
var audited = cluster.Observers{Audit: true}

// A clean audited ladder reports zero invariant breaches, drops no
// event and captures digest rounds at every point. That the recording
// is the same at any parallelism is TestReplayCorpus's scale rows.
func TestScaleAuditedClean(t *testing.T) {
	pts, err := Scale(cluster.Default(), []int{8, 16}, ServerFaithful, audited)
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	for _, pt := range pts {
		seen := pt.Obs
		if seen.Checks == 0 {
			t.Errorf("n=%d: invariant engine never ran", seen.ComputeNodes)
		}
		if seen.Breaches != 0 {
			t.Errorf("n=%d: %d invariant breaches on a clean run", seen.ComputeNodes, seen.Breaches)
		}
		if seen.Dropped != 0 {
			t.Errorf("n=%d: ring dropped %d events", seen.ComputeNodes, seen.Dropped)
		}
		if seen.Rounds == 0 {
			t.Errorf("n=%d: no digest rounds captured", seen.ComputeNodes)
		}
		if len(seen.Audit) == 0 {
			t.Errorf("n=%d: empty recording", seen.ComputeNodes)
		}
	}
}

// The serial and sharded server implementations must agree on the
// end-of-run job-index digest when driven by the same workload:
// sharding changes scheduling interleavings and node placement, but
// every job still runs exactly once and ends in the same terminal
// state. (The sharded *ladder* body is not comparable directly — it
// drives a wider prober stream — so this test enables the sharded
// fast path underneath the faithful point body.)
func TestScaleAuditedModeDigestIdentity(t *testing.T) {
	const n = 8
	runOne := func(p cluster.Params) *Observed {
		t.Helper()
		run, err := ladderPoint(p, n, ServerFaithful, scaleProbe, audited)
		if err != nil {
			t.Fatalf("ladderPoint: %v", err)
		}
		return &run.obs
	}
	serial := runOne(cluster.Default())
	shardedParams := cluster.Default()
	shardedParams.Server.Shards = ShardsFor(n)
	shardedParams.Maui.Partitions = PartitionsFor(n)
	sharded := runOne(shardedParams)

	if b := serial.Breaches + sharded.Breaches; b != 0 {
		t.Fatalf("%d invariant breaches across modes", b)
	}
	df := serial.FinalDigests()
	ds := sharded.FinalDigests()
	sum, ok := df["pbs.jobs"]
	if !ok {
		t.Fatalf("serial run captured no pbs.jobs digest (have %v)", df)
	}
	if got, ok := ds["pbs.jobs"]; !ok || got != sum {
		t.Fatalf("pbs.jobs digest differs across server modes: serial %#x, sharded %#x (ok=%v)", sum, got, ok)
	}
}

// Distinct workload seeds must yield recordings that diverge — the
// property the CI audit smoke step demonstrates with dacobs audit -diff.
func TestScaleAuditedSeedsDiverge(t *testing.T) {
	base := cluster.Default()
	a, err := Scale(base, []int{8}, ServerFaithful, audited)
	if err != nil {
		t.Fatalf("Scale seed 0: %v", err)
	}
	seeded := base
	seeded.Seed = 7
	b, err := Scale(seeded, []int{8}, ServerFaithful, audited)
	if err != nil {
		t.Fatalf("Scale seed 7: %v", err)
	}
	d := audit.Diff(a[0].Obs.Audit, b[0].Obs.Audit, 3)
	if d == nil {
		t.Fatal("recordings with distinct seeds are identical")
	}
	if d.Comp() == "?" {
		t.Fatalf("divergence names no component: %+v", d)
	}
}

func TestAuditTableRenders(t *testing.T) {
	pts := []Observed{{
		ComputeNodes: 8,
		File:         capture.File{Audit: []audit.Event{{Kind: audit.KindJob, Comp: "pbs"}}},
		Checks:       120, Breaches: 0, Rounds: 3,
	}}
	var sb strings.Builder
	if err := AuditTable(pts).Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{"checks", "breaches", "digest_rounds", "120"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, sb.String())
		}
	}
}
