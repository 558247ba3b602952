// Command daclint statically enforces the simulator's determinism
// and virtual-time invariants (see internal/lint for the analyzer
// suite). It loads and type-checks every package of a module from
// source and runs the suite over each:
//
//	daclint [-json] <module-dir>
//
// Findings print one per line as file:line:col: analyzer: message.
// With -json the same findings come as one JSON object instead, with
// per-analyzer counts (zeroes included, so the schema is stable),
// CFG-build statistics from the flow-sensitive analyzers, and total
// runtime, for CI archival. The exit status is 0 on a clean module, 2
// when there are findings and 1 on an operational failure.
//
// False positives are suppressed in place with a reasoned directive:
//
//	//lint:ignore walltime host-side progress logging, not sim time
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/cfg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var dir string
	asJSON := false
	switch {
	case len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help"):
		usage(stdout)
		return 0
	case len(args) == 2 && args[0] == "-json":
		dir, asJSON = args[1], true
	case len(args) == 1 && !strings.HasPrefix(args[0], "-"):
		dir = args[0]
	default:
		usage(stderr)
		return 2
	}
	rep, err := lintModule(dir)
	if err != nil {
		fmt.Fprintf(stderr, "daclint: %v\n", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "daclint: %v\n", err)
			return 1
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(rep.Findings) > 0 {
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "daclint enforces the simulator's determinism and virtual-time invariants.\n\n")
	fmt.Fprintf(w, "usage:\n")
	fmt.Fprintf(w, "  daclint <module-dir>         # findings as file:line:col: analyzer: message\n")
	fmt.Fprintf(w, "  daclint -json <module-dir>   # the same findings as one JSON report\n\n")
	fmt.Fprintf(w, "analyzers:\n")
	for _, a := range lint.Suite() {
		fmt.Fprintf(w, "  %-15s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nsuppress a finding with a reasoned directive on or above its line:\n")
	fmt.Fprintf(w, "  //lint:ignore <analyzer>[,<analyzer>...] <reason>\n")
}

// report is the result of one run, whichever way it is rendered.
// Analyzers carries a count for every suite analyzer (zeroes
// included) plus "ignore" for malformed directives, so consumers can
// key off a stable schema.
type report struct {
	Packages  int            `json:"packages"`
	Findings  []finding      `json:"findings"`
	Analyzers map[string]int `json:"analyzers"`
	CFG       cfgStats       `json:"cfg"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// cfgStats reports the flow-sensitive analyzers' CFG construction
// work: how many function CFGs were built and the wall time spent
// building them (process-cumulative, from cfg.Stats).
type cfgStats struct {
	Builds  int64   `json:"builds"`
	BuildMS float64 `json:"build_ms"`
}

// lintModule loads every package of the module rooted at dir from
// source and runs the suite over each.
func lintModule(dir string) (*report, error) {
	start := time.Now()
	pkgs, err := lint.LoadModule(dir)
	if err != nil {
		return nil, err
	}
	suite := lint.Suite()
	rep := &report{
		Packages:  len(pkgs),
		Findings:  []finding{},
		Analyzers: map[string]int{"ignore": 0},
	}
	for _, a := range suite {
		rep.Analyzers[a.Name] = 0
	}
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, suite)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			rep.Findings = append(rep.Findings, finding{
				File:     relName(p.Filename),
				Line:     p.Line,
				Col:      p.Column,
				Analyzer: d.Category,
				Message:  d.Message,
			})
			rep.Analyzers[d.Category]++
		}
	}
	builds, buildTime := cfg.Stats()
	rep.CFG = cfgStats{Builds: builds, BuildMS: float64(buildTime.Microseconds()) / 1000}
	rep.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return rep, nil
}

func relName(filename string) string {
	if rel, err := filepath.Rel(".", filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}
