package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/capture"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/trace"
)

// runProf is the causal critical-path profiler: it reconstructs each
// job's causal chain across the batch-system layers from the capture's
// span lines and prints an exact per-phase attribution of every job's
// end-to-end virtual-time latency, the aggregate critical-path owners,
// and — in diff mode — the phase responsible for drift between two
// captures.
func runProf(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dacobs prof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jobs := fs.Bool("jobs", false, "include the exact per-job attribution table")
	top := fs.Int("top", 3, "critical-path owners to list")
	folded := fs.String("folded", "", "write folded flamegraph stacks (flamegraph.pl / inferno format) to this file")
	chrome := fs.String("chrome", "", "write the span stream as Chrome trace-event JSON (Perfetto-loadable) to this file")
	diff := fs.String("diff", "", "baseline capture to diff against: report per-phase drift and the top drifter")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dacobs prof [flags] CAPTURE.jsonl [CAPTURE.jsonl ...]")
		fs.PrintDefaults()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dacobs prof: %v\n", err)
		return 1
	}

	// analyze profiles one capture and reports incomplete chains.
	analyze := func(path string) (*prof.Profile, []trace.Event, error) {
		f, err := load(path, capture.KindSpan)
		if err != nil {
			return nil, nil, err
		}
		p := prof.Analyze(f.Spans)
		if n := len(p.Incomplete); n > 0 {
			fmt.Fprintf(stderr, "dacobs prof: %s: %d incomplete causal chains (first: %s)\n",
				path, n, p.Incomplete[0])
		}
		return p, f.Spans, nil
	}

	if *chrome != "" && fs.NArg() != 1 {
		fmt.Fprintln(stderr, "dacobs prof: -chrome renders exactly one capture")
		return 2
	}
	var profiles []*prof.Profile
	var streams [][]trace.Event
	var sum *prof.Summary
	for _, path := range fs.Args() {
		p, events, err := analyze(path)
		if err != nil {
			return fail(err)
		}
		profiles = append(profiles, p)
		streams = append(streams, events)
		if sum == nil {
			sum = prof.Summarize(p)
		} else {
			sum.Merge(prof.Summarize(p))
		}
	}

	if *diff != "" {
		old, _, err := analyze(*diff)
		if err != nil {
			return fail(err)
		}
		deltas := prof.Diff(prof.Summarize(old), sum)
		if err := emit(stdout, prof.DiffTable(deltas), *csv); err != nil {
			return fail(err)
		}
		if d, ok := prof.TopDrifter(deltas); ok {
			fmt.Fprintf(stdout, "dacobs prof: top drifter: %s (%+.1f ms)\n", d.Name, float64(d.Delta)/1e6)
		}
		return 0
	}

	tables := []*metrics.Table{sum.StaticTable()}
	if sum.Dyns > 0 || sum.Rejected > 0 {
		tables = append(tables, sum.DynTable())
	}
	tables = append(tables, sum.PathTable(*top))
	if *jobs {
		for _, p := range profiles {
			tables = append(tables, prof.JobTable(p))
		}
	}
	for _, t := range tables {
		if err := emit(stdout, t, *csv); err != nil {
			return fail(err)
		}
	}

	for _, out := range []struct {
		path, what string
		write      func(io.Writer, []trace.Event) error
	}{
		{*folded, "folded stacks", prof.WriteFolded},
		{*chrome, "Chrome trace", trace.WriteChrome},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return fail(err)
		}
		// Span ids restart in every capture, so each stream is rendered
		// on its own; folded stacks are additive, flamegraph tools sum
		// repeated lines.
		for _, events := range streams {
			if err := out.write(f, events); err != nil {
				f.Close()
				return fail(fmt.Errorf("%s: %w", out.path, err))
			}
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "dacobs prof: wrote %s to %s\n", out.what, out.path)
	}
	return 0
}
