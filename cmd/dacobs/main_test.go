package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/core"
)

// One ladder point observed by everything at once: the capture every
// subcommand must be able to read.
func observedPoint(t *testing.T) (path string, obs core.Observed) {
	t.Helper()
	pts, err := core.Scale(cluster.Default(), []int{8}, core.ServerFaithful,
		cluster.Observers{Trace: true, Telemetry: true, Audit: true})
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	path = capture.Path(filepath.Join(t.TempDir(), "obs"), 8)
	if err := capture.WriteFile(path, &pts[0].Obs.File); err != nil {
		t.Fatalf("write capture: %v", err)
	}
	return path, pts[0].Obs
}

func TestAllSubcommandsReadOneCapture(t *testing.T) {
	path, _ := observedPoint(t)
	chrome := filepath.Join(t.TempDir(), "trace.json")
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"prof", "-chrome", chrome, path}, []string{"Static allocation phases", "Critical path by owner"}},
		{[]string{"stat", path}, []string{"Scrape summary", "pbs.dyn_latency", "Span latencies [ms]", "maui.sched.cycle"}},
		{[]string{"stat", "-name", "maui", "-csv", path}, []string{"maui.cycle,histogram", "maui.sched.cycle,"}},
		{[]string{"audit", path}, []string{"events by component", "digests", "invariant breaches: 0"}},
	} {
		var out, errb strings.Builder
		if code := run(c.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d; stderr: %s", c.args, code, errb.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%v: output missing %q:\n%s", c.args, w, out.String())
			}
		}
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("-chrome wrote %d events, err %v", len(doc.TraceEvents), err)
	}
}

// Asking for a kind the capture does not hold says what it does hold;
// usage errors exit 2, failed reads 1 (prof, stat) or 2 (audit).
func TestMissingKindsAndExitCodes(t *testing.T) {
	_, obs := observedPoint(t)
	dir := t.TempDir()
	auditOnly := filepath.Join(dir, "audit.jsonl")
	if err := capture.WriteFile(auditOnly, &capture.File{Audit: obs.Audit}); err != nil {
		t.Fatal(err)
	}
	spansOnly := filepath.Join(dir, "spans.jsonl")
	if err := capture.WriteFile(spansOnly, &capture.File{Spans: obs.Spans}); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("{\"kind\":\"span\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"prof", auditOnly}, 1, "no span lines (the file holds audit ("},
		{[]string{"prof", "-diff", auditOnly, spansOnly}, 1, "no span lines"},
		{[]string{"stat", auditOnly}, 1, "no scrape or span lines (the file holds audit ("},
		{[]string{"stat", "-windows", spansOnly}, 1, "no scrape lines (the file holds span ("},
		{[]string{"audit", spansOnly}, 2, "no audit lines (the file holds span ("},
		{[]string{"prof", garbage}, 1, "garbage.jsonl: capture: line 1"},
		{[]string{"audit", filepath.Join(dir, "missing.jsonl")}, 2, "missing.jsonl"},
		{[]string{"prof"}, 2, "usage"},
		{[]string{"stat", "-diff", spansOnly}, 2, "usage"},
		{[]string{"audit", "-diff", auditOnly}, 2, "two captures"},
		{[]string{"prof", "-chrome", "x.json", spansOnly, spansOnly}, 2, "exactly one"},
		{[]string{"top"}, 2, "usage: dacobs prof|stat|audit"},
		{nil, 2, "usage: dacobs prof|stat|audit"},
	} {
		var out, errb strings.Builder
		if code := run(c.args, &out, &errb); code != c.code {
			t.Errorf("%v: exit %d, want %d; stderr: %s", c.args, code, c.code, errb.String())
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, errb.String(), c.want)
		}
	}
}
