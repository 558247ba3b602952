package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testWindows() []telemetry.Window {
	return []telemetry.Window{
		{Index: 0, Start: 0, End: 5 * time.Second, Rows: []telemetry.Row{
			{Name: "pbs.dyn_latency", Kind: "histogram", Total: 3, Delta: 3,
				P50: 40 * time.Millisecond, P99: 55 * time.Millisecond, Max: 55 * time.Millisecond},
			{Name: "pbs.submits", Kind: "counter", Total: 10, Delta: 10},
		}},
		{Index: 1, Start: 5 * time.Second, End: 10 * time.Second, Rows: []telemetry.Row{
			{Name: "pbs.dyn_latency", Kind: "histogram", Total: 7, Delta: 4,
				P50: 45 * time.Millisecond, P99: 60 * time.Millisecond, Max: 61 * time.Millisecond},
			{Name: "pbs.submits", Kind: "counter", Total: 25, Delta: 15},
		}},
	}
}

func TestCollect(t *testing.T) {
	stats := collect(testWindows(), "")
	if len(stats) != 2 {
		t.Fatalf("got %d instruments, want 2", len(stats))
	}
	// Sorted by name: dyn_latency before submits.
	dyn, sub := stats[0], stats[1]
	if dyn.name != "pbs.dyn_latency" || sub.name != "pbs.submits" {
		t.Fatalf("order: %s, %s", dyn.name, sub.name)
	}
	if dyn.total != 7 || dyn.deltaSum != 7 || dyn.windows != 2 || dyn.active != 2 {
		t.Fatalf("dyn stats: %+v", dyn)
	}
	if dyn.p99Worst != 60*time.Millisecond || dyn.maxWorst != 61*time.Millisecond {
		t.Fatalf("dyn worst: p99=%v max=%v", dyn.p99Worst, dyn.maxWorst)
	}
	if sub.total != 25 || sub.deltaSum != 25 || sub.deltaMax != 15 {
		t.Fatalf("submit stats: %+v", sub)
	}
	if got := collect(testWindows(), "dyn"); len(got) != 1 || got[0].name != "pbs.dyn_latency" {
		t.Fatalf("filter: %+v", got)
	}
}

func TestNumAndDur(t *testing.T) {
	if got := num(25); got != "25" {
		t.Fatalf("num(25) = %q", got)
	}
	if got := num(0.25); got != "0.25" {
		t.Fatalf("num(0.25) = %q", got)
	}
	if got := dur(0); got != "-" {
		t.Fatalf("dur(0) = %q", got)
	}
	if got := dur(55 * time.Millisecond); got != "55.0" {
		t.Fatalf("dur(55ms) = %q", got)
	}
}

func TestSummaryAndWindowTables(t *testing.T) {
	var b bytes.Buffer
	if err := summaryTable(testWindows(), "x.jsonl", "").Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"pbs.dyn_latency", "p99_worst_ms", "60.0", "25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := windowTable(testWindows(), "x.jsonl", "dyn").Render(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if strings.Contains(out, "pbs.submits") {
		t.Fatalf("window table ignored the name filter:\n%s", out)
	}
	if !strings.Contains(out, "5000.0") || !strings.Contains(out, "45.0") {
		t.Fatalf("window table:\n%s", out)
	}
}

func TestDiffTable(t *testing.T) {
	oldW := testWindows()
	newW := testWindows()
	newW[1].Rows[0].P99 = 80 * time.Millisecond
	newW[1].Rows[1].Total = 40
	// An instrument only present in the new run shows "-" on the old side.
	newW[1].Rows = append(newW[1].Rows, telemetry.Row{Name: "net.msgs", Kind: "counter", Total: 5, Delta: 5})

	var b bytes.Buffer
	if err := diffTable(oldW, newW, "a.jsonl", "b.jsonl", "").Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"net.msgs", "20.0", "15", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff missing %q:\n%s", want, out)
		}
	}
}
