package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/core"
)

// record writes events to a capture file under dir and returns its
// path.
func record(t *testing.T, dir, name string, events []audit.Event) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := capture.WriteFile(path, &capture.File{Audit: events}); err != nil {
		t.Fatalf("write capture: %v", err)
	}
	return path
}

// auditedEvents runs the smallest audited ladder point and returns
// its recording.
func auditedEvents(t *testing.T) []audit.Event {
	t.Helper()
	pts, err := core.Scale(cluster.Default(), []int{8}, core.ServerFaithful, cluster.Observers{Audit: true})
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	if pts[0].Obs.Breaches != 0 {
		t.Fatalf("clean run reported %d breaches", pts[0].Obs.Breaches)
	}
	return pts[0].Obs.Audit
}

// Injecting a single mutated event into a real recording must make
// dacobs audit -diff name exactly that event: its index, the responsible
// component, and its virtual timestamp.
func TestDiffNamesFirstDivergentEvent(t *testing.T) {
	events := auditedEvents(t)
	if len(events) < 100 {
		t.Fatalf("recording too short to mutate meaningfully: %d events", len(events))
	}
	dir := t.TempDir()
	pathA := record(t, dir, "a.jsonl", events)

	mutated := make([]audit.Event, len(events))
	copy(mutated, events)
	idx := len(mutated) / 2
	mutated[idx].A++ // a corrupted payload: e.g. a free-count off by one
	pathB := record(t, dir, "b.jsonl", mutated)

	var out, errb strings.Builder
	if code := run([]string{"audit", "-diff", pathA, pathB}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	want := fmt.Sprintf("first divergence at event %d: component %s, virtual time %.3fms",
		idx, events[idx].Comp, float64(events[idx].VT)/1e6)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("diff output missing %q:\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), audit.FormatEvent(events[idx])) {
		t.Fatalf("diff output missing the divergent event line:\n%s", out.String())
	}
}

// Identical recordings must diff clean with exit 0.
func TestDiffIdenticalRecordings(t *testing.T) {
	events := auditedEvents(t)
	dir := t.TempDir()
	pathA := record(t, dir, "a.jsonl", events)
	pathB := record(t, dir, "b.jsonl", events)
	var out, errb strings.Builder
	if code := run([]string{"audit", "-diff", pathA, pathB}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("diff output: %s", out.String())
	}
}

// The summary mode reports component counts and digest sums, and
// flags breach events with a non-zero exit.
func TestSummaryReportsBreaches(t *testing.T) {
	events := auditedEvents(t)
	dir := t.TempDir()
	clean := record(t, dir, "clean.jsonl", events)
	var out, errb strings.Builder
	if code := run([]string{"audit", clean}, &out, &errb); code != 0 {
		t.Fatalf("clean summary exit %d; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"events by component", "pbs", "netsim", "digests", "invariant breaches: 0"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}

	poisoned := append(append([]audit.Event{}, events...), audit.Event{
		Seq: uint64(len(events)), Kind: audit.KindBreach, Comp: "pbs",
		Subj: "conservation.acc", Detail: "test", A: 1, B: 2,
	})
	bad := record(t, dir, "bad.jsonl", poisoned)
	out.Reset()
	if code := run([]string{"audit", bad}, &out, &errb); code != 1 {
		t.Fatalf("breach summary exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "invariant breaches: 1") {
		t.Fatalf("summary missing breach count:\n%s", out.String())
	}
}
