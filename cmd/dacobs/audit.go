package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"repro/internal/audit"
	"repro/internal/capture"
)

// runAudit inspects a capture's flight recording. The summary reports
// per-component event counts, invariant breaches, and digest rounds;
// it exits 1 when the recording contains breach events. The diff
// walks two recordings to the first divergent event — the responsible
// component, its virtual timestamp, and the surrounding event window
// from each side — and exits 1 when the recordings differ. An
// unreadable recording exits 2.
func runAudit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dacobs audit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "diff two recordings to their first divergence")
	context := fs.Int("context", 4, "events of context around the divergence")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dacobs audit: -diff wants exactly two captures")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), *context, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "dacobs audit: want one capture (or -diff a b)")
		return 2
	}
	return runSummary(fs.Arg(0), stdout, stderr)
}

func loadAudit(path string, stderr io.Writer) ([]audit.Event, bool) {
	f, err := load(path, capture.KindAudit)
	if err != nil {
		fmt.Fprintf(stderr, "dacobs audit: %v\n", err)
		return nil, false
	}
	return f.Audit, true
}

func runDiff(pathA, pathB string, context int, stdout, stderr io.Writer) int {
	a, ok := loadAudit(pathA, stderr)
	if !ok {
		return 2
	}
	b, ok := loadAudit(pathB, stderr)
	if !ok {
		return 2
	}
	d := audit.Diff(a, b, context)
	if err := audit.WriteDivergence(stdout, d, pathA, pathB); err != nil {
		fmt.Fprintf(stderr, "dacobs audit: %v\n", err)
		return 2
	}
	if d != nil {
		return 1
	}
	return 0
}

func runSummary(path string, stdout, stderr io.Writer) int {
	events, ok := loadAudit(path, stderr)
	if !ok {
		return 2
	}
	fmt.Fprintf(stdout, "%s: %d events\n", path, len(events))
	fmt.Fprintf(stdout, "virtual span: %.3fms .. %.3fms\n",
		float64(events[0].VT)/1e6, float64(events[len(events)-1].VT)/1e6)

	type key struct {
		comp string
		kind audit.Kind
	}
	counts := make(map[key]int)
	var breaches []audit.Event
	digests := make(map[string]audit.Event)
	rounds := int64(-1)
	for _, e := range events {
		counts[key{e.Comp, e.Kind}]++
		switch e.Kind {
		case audit.KindBreach:
			breaches = append(breaches, e)
		case audit.KindDigest:
			digests[e.Subj] = e
			if e.B > rounds {
				rounds = e.B
			}
		}
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].comp != keys[j].comp {
			return keys[i].comp < keys[j].comp
		}
		return keys[i].kind < keys[j].kind
	})
	fmt.Fprintln(stdout, "events by component and kind:")
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-8s %-7s %d\n", k.comp, k.kind, counts[k])
	}
	if len(digests) > 0 {
		names := make([]string, 0, len(digests))
		for n := range digests {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "digests (%d rounds), final sums:\n", rounds+1)
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-14s %#016x\n", n, uint64(digests[n].A))
		}
	}
	fmt.Fprintf(stdout, "invariant breaches: %d\n", len(breaches))
	for _, e := range breaches {
		fmt.Fprintf(stdout, "  %s\n", audit.FormatEvent(e))
	}
	if len(breaches) > 0 {
		return 1
	}
	return 0
}
