package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// runStat renders what a run's instruments did: a per-instrument
// summary of the capture's scrape lines and a per-span-name latency
// table of its span lines (whichever the file holds), the full
// per-window series of selected instruments, or a diff of two runs.
func runStat(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dacobs stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	windows := fs.Bool("windows", false, "render the per-window series instead of the summary (use -name to select instruments)")
	name := fs.String("name", "", "only instruments and spans whose name contains this substring")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	diff := fs.Bool("diff", false, "compare the scrape series of two captures (old new)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	want := 1
	if *diff {
		want = 2
	}
	if fs.NArg() != want {
		fmt.Fprintln(stderr, "usage: dacobs stat [-windows] [-name SUBSTR] [-csv] CAPTURE.jsonl")
		fmt.Fprintln(stderr, "       dacobs stat -diff [-name SUBSTR] [-csv] OLD.jsonl NEW.jsonl")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dacobs stat: %v\n", err)
		return 1
	}

	var tables []*metrics.Table
	switch {
	case *diff:
		a, err := load(fs.Arg(0), capture.KindScrape)
		if err != nil {
			return fail(err)
		}
		b, err := load(fs.Arg(1), capture.KindScrape)
		if err != nil {
			return fail(err)
		}
		tables = append(tables, diffTable(a.Windows, b.Windows, fs.Arg(0), fs.Arg(1), *name))
	case *windows:
		f, err := load(fs.Arg(0), capture.KindScrape)
		if err != nil {
			return fail(err)
		}
		tables = append(tables, windowTable(f.Windows, fs.Arg(0), *name))
	default:
		f, err := load(fs.Arg(0), capture.KindScrape, capture.KindSpan)
		if err != nil {
			return fail(err)
		}
		if len(f.Windows) > 0 {
			tables = append(tables, summaryTable(f.Windows, fs.Arg(0), *name))
		}
		if len(f.Spans) > 0 {
			tables = append(tables, spanTable(f.Spans, *name))
		}
	}
	for _, t := range tables {
		if err := emit(stdout, t, *csv); err != nil {
			return fail(err)
		}
	}
	return 0
}

// spanTable aggregates completed spans into per-name latency
// distributions with the tail quantiles a mean hides. Spans are keyed
// "component.name": the "@host" instance suffix of a track is
// stripped, so "dac@cn0" and "dac@cn1" both feed "dac.<span>".
func spanTable(events []trace.Event, filter string) *metrics.Table {
	byName := map[string]*metrics.Sample{}
	for i := range events {
		ev := &events[i]
		if ev.Kind != trace.KindSpan {
			continue
		}
		comp, _, _ := strings.Cut(ev.Track, "@")
		key := comp + "." + ev.Name
		if filter != "" && !strings.Contains(key, filter) {
			continue
		}
		s := byName[key]
		if s == nil {
			s = &metrics.Sample{}
			byName[key] = s
		}
		s.Add(ev.Dur)
	}
	names := make([]string, 0, len(byName))
	for k := range byName {
		names = append(names, k)
	}
	sort.Strings(names)
	t := &metrics.Table{
		Title:   "Span latencies [ms]",
		Headers: []string{"span", "count", "mean", "p50", "p95", "p99", "max"},
	}
	for _, k := range names {
		s := byName[k]
		t.AddRow(k, fmt.Sprint(s.N()),
			metrics.Ms(s.Mean()), metrics.Ms(s.Percentile(50)), metrics.Ms(s.Percentile(95)),
			metrics.Ms(s.Percentile(99)), metrics.Ms(s.Max()))
	}
	return t
}

// instrumentStats aggregates one instrument's rows across a run.
type instrumentStats struct {
	name, kind string
	windows    int     // windows in which the instrument appeared
	active     int     // windows with a non-zero delta
	total      float64 // final cumulative value
	deltaSum   float64
	deltaMax   float64
	p50Worst   time.Duration // histograms: largest per-window p50
	p99Worst   time.Duration
	maxWorst   time.Duration
}

// collect folds a window series into per-instrument aggregates,
// returned in (name, kind) order. filter narrows by name substring.
func collect(wins []telemetry.Window, filter string) []*instrumentStats {
	byKey := map[string]*instrumentStats{}
	var order []string
	for _, w := range wins {
		for _, r := range w.Rows {
			if filter != "" && !strings.Contains(r.Name, filter) {
				continue
			}
			key := r.Name + "\x00" + string(r.Kind)
			st := byKey[key]
			if st == nil {
				st = &instrumentStats{name: r.Name, kind: string(r.Kind)}
				byKey[key] = st
				order = append(order, key)
			}
			st.windows++
			st.total = r.Total
			st.deltaSum += r.Delta
			if r.Delta != 0 {
				st.active++
			}
			if r.Delta > st.deltaMax {
				st.deltaMax = r.Delta
			}
			if r.P50 > st.p50Worst {
				st.p50Worst = r.P50
			}
			if r.P99 > st.p99Worst {
				st.p99Worst = r.P99
			}
			if r.Max > st.maxWorst {
				st.maxWorst = r.Max
			}
		}
	}
	sort.Strings(order)
	out := make([]*instrumentStats, len(order))
	for i, key := range order {
		out[i] = byKey[key]
	}
	return out
}

// num renders a float compactly (totals and deltas mix counts,
// gauges, and seconds).
func num(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// dur renders a histogram statistic, "-" when the instrument never
// observed anything.
func dur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return metrics.Ms(d)
}

func summaryTable(wins []telemetry.Window, path, filter string) *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Scrape summary: %s (%d windows, %v of virtual time)",
			path, len(wins), wins[len(wins)-1].End-wins[0].Start),
		Headers: []string{"instrument", "kind", "windows", "active",
			"final_total", "delta_sum", "delta_max", "p50_worst_ms", "p99_worst_ms", "max_ms"},
	}
	for _, st := range collect(wins, filter) {
		t.AddRow(st.name, st.kind, fmt.Sprint(st.windows), fmt.Sprint(st.active),
			num(st.total), num(st.deltaSum), num(st.deltaMax),
			dur(st.p50Worst), dur(st.p99Worst), dur(st.maxWorst))
	}
	return t
}

func windowTable(wins []telemetry.Window, path, filter string) *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Scrape windows: %s", path),
		Headers: []string{"window", "start_ms", "end_ms", "instrument", "kind",
			"total", "delta", "p50_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms"},
	}
	for _, w := range wins {
		for _, r := range w.Rows {
			if filter != "" && !strings.Contains(r.Name, filter) {
				continue
			}
			t.AddRow(fmt.Sprint(w.Index), metrics.Ms(w.Start), metrics.Ms(w.End),
				r.Name, string(r.Kind), num(r.Total), num(r.Delta),
				dur(r.P50), dur(r.P99), dur(r.P999), dur(r.Mean), dur(r.Max))
		}
	}
	return t
}

func diffTable(oldW, newW []telemetry.Window, oldPath, newPath, filter string) *metrics.Table {
	oldStats := collect(oldW, filter)
	newStats := collect(newW, filter)
	oldBy := map[string]*instrumentStats{}
	for _, st := range oldStats {
		oldBy[st.name+"\x00"+st.kind] = st
	}
	newBy := map[string]*instrumentStats{}
	for _, st := range newStats {
		newBy[st.name+"\x00"+st.kind] = st
	}
	var keys []string
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, ok := oldBy[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	t := &metrics.Table{
		Title: fmt.Sprintf("Scrape diff: %s -> %s (final totals and worst per-window p99)",
			oldPath, newPath),
		Headers: []string{"instrument", "kind", "total_old", "total_new", "total_diff",
			"p99_worst_old_ms", "p99_worst_new_ms", "p99_diff_ms"},
	}
	for _, k := range keys {
		o, n := oldBy[k], newBy[k]
		name, kind := k[:strings.Index(k, "\x00")], k[strings.Index(k, "\x00")+1:]
		cell := func(st *instrumentStats, f func(*instrumentStats) string) string {
			if st == nil {
				return "-"
			}
			return f(st)
		}
		totalDiff, p99Diff := "-", "-"
		if o != nil && n != nil {
			totalDiff = num(n.total - o.total)
			if o.p99Worst != 0 || n.p99Worst != 0 {
				p99Diff = metrics.Ms(n.p99Worst - o.p99Worst)
			}
		}
		t.AddRow(name, kind,
			cell(o, func(st *instrumentStats) string { return num(st.total) }),
			cell(n, func(st *instrumentStats) string { return num(st.total) }),
			totalDiff,
			cell(o, func(st *instrumentStats) string { return dur(st.p99Worst) }),
			cell(n, func(st *instrumentStats) string { return dur(st.p99Worst) }),
			p99Diff)
	}
	return t
}
