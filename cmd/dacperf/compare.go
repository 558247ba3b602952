package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// Verdicts of one workload x end-to-end metric row. Every end-to-end
// metric is lower-is-better.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minReportsPerSide is how many reports a side needs before its
// wall-clock metrics are judged. The host's speed drifts between two
// reports by more than the bounds while the reps inside one report
// agree to a few percent, so one report per side cannot tell a slower
// program from a slower minute. Two per side, taken alternately
// (A B B A), put both sides under the same drift and let the pooled
// quartiles span it.
const minReportsPerSide = 2

// judge compares a candidate metric b against a baseline a under the
// metric's bound. A metric with no relative bound is exact: equal is
// same, anything else is better or worse. Otherwise the bound is a
// share of the baseline median (plus the spec's absolute slack); when
// either side's inter-quartile spread is wider than that bound the
// medians cannot resolve a difference of the bound's size, so the row
// is unresolved unless every run of one side beats every run of the
// other. pooled says both sides hold at least minReportsPerSide
// reports; without it a wall-clock metric is always unresolved.
func judge(spec e2eSpec, a, b Metric, pooled bool) string {
	if spec.rel == 0 {
		switch {
		case b.Value == a.Value:
			return verdictSame
		case b.Value < a.Value:
			return verdictBetter
		}
		return verdictWorse
	}
	if spec.hostTime && !pooled {
		return verdictUnresolved
	}
	limit := spec.rel*a.Value + spec.abs
	if max(a.Q3-a.Q1, b.Q3-b.Q1) > limit {
		switch {
		case len(a.Samples) == 0 || len(b.Samples) == 0:
			return verdictUnresolved
		case slices.Max(b.Samples) < slices.Min(a.Samples):
			return verdictBetter
		case slices.Min(b.Samples) > slices.Max(a.Samples):
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case b.Value > a.Value+limit:
		return verdictWorse
	case b.Value < a.Value-limit:
		return verdictBetter
	}
	return verdictSame
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// readSide reads one side of a comparison: one report, or several
// separated by commas whose samples are pooled, and returns how many
// it read. Reports of one side must agree on every exact metric.
func readSide(arg string) (side *Report, reports int, err error) {
	paths := strings.Split(arg, ",")
	for _, path := range paths {
		r, err := readReport(path)
		if err != nil {
			return nil, 0, err
		}
		if side == nil {
			side = r
			continue
		}
		for i := range side.Workloads {
			w := &side.Workloads[i]
			for j, m := range w.EndToEnd {
				m2, ok := findMetric(r.workload(w.Name).EndToEnd, m.Name)
				switch {
				case !ok:
					return nil, 0, fmt.Errorf("%s: %s %s missing", path, w.Name, m.Name)
				case m.Exact && m2.Value != m.Value:
					return nil, 0, fmt.Errorf("%s: %s %s is %v, earlier reports of this side have %v", path, w.Name, m.Name, m2.Value, m.Value)
				case !m.Exact:
					w.EndToEnd[j] = sampled(m.Name, m.Unit, append(m.Samples, m2.Samples...))
				}
			}
		}
	}
	return side, len(paths), nil
}

// compareFiles prints one row per workload x end-to-end metric and
// returns the process exit code: 1 when any row is worse (or a
// workload or metric of A is missing from B), 2 when a side cannot be
// read.
func compareFiles(w io.Writer, sideA, sideB string) int {
	a, nA, err := readSide(sideA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dacperf: %v\n", err)
		return 2
	}
	b, nB, err := readSide(sideB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dacperf: %v\n", err)
		return 2
	}
	return compareReports(w, a, b, min(nA, nB) >= minReportsPerSide)
}

func compareReports(w io.Writer, a, b *Report, pooled bool) int {
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): exact metrics are expected to move\n", a.Seed, b.Seed)
	}
	if !pooled {
		fmt.Fprintf(w, "note: fewer than %d reports on a side: wall-clock rows (setup_s, host_us_per_op) read unresolved; take reports alternately and pass each side's as a comma-separated set\n", minReportsPerSide)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tbound\tverdict\t")
	worse := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wa.InputDigest != wb.InputDigest && wb.Name != "" {
			fmt.Fprintf(tw, "%s\tinput digest\t\t%s\t%s\t\tdiffers\t\n", wa.Name, wa.InputDigest, wb.InputDigest)
		}
		for _, ma := range wa.EndToEnd {
			spec, ok := specOf(ma.Name)
			if !ok {
				continue
			}
			mb, ok := findMetric(wb.EndToEnd, ma.Name)
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\tmissing\t\t%s\t\n", wa.Name, ma.Name, ma.Unit, ma.Value, verdictWorse)
				worse++
				continue
			}
			v := judge(spec, ma, mb, pooled)
			if v == verdictWorse {
				worse++
			}
			bound := "exact"
			if spec.rel > 0 {
				bound = fmt.Sprintf("+%.0f%%", spec.rel*100)
				if spec.abs > 0 {
					bound += fmt.Sprintf(" +%g%s", spec.abs, spec.unit)
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%s\t%s\t\n",
				wa.Name, ma.Name, ma.Unit, ma.Value, ma.Q1, ma.Q3, ma.N, mb.Value, mb.Q1, mb.Q3, mb.N, bound, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(w, "%d row(s) worse\n", worse)
		return 1
	}
	return 0
}
