// Package lint is the daclint suite that TestRepoPassesDaclint runs over
// this module: static analyzers that enforce the simulator's determinism
// and virtual-time invariants before they can cost a flaky benchmark gate.
//
// The suite (see Suite) ships three analyzers:
//
//   - walltime: no wall-clock time (time.Now, time.Sleep, ...) in
//     simulation code — virtual time must come from internal/sim.
//   - maporder: no map iteration order leaking into emitted output
//     (tables, CSV, traces, audit records, digest writes, netsim sends)
//     without an intervening sort.
//   - spanbalance: every trace span opened in a function
//     (Tracer.Start, Span.Child) must reach an End in that scope or
//     be handed off — an open span truncates the causal chains the
//     critical-path profiler reconstructs.
//
// Whole-run determinism is checked dynamically, by the replay corpus
// (TestReplayCorpus in internal/core), which runs every scenario twice.
//
// There is no suppression directive: a false positive is fixed in the
// analyzer or in its scope configuration below (wallClockAllowed). Findings in _test.go files are never reported: tests
// legitimately measure wall time and spawn raw goroutines to exercise
// concurrency.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// wallClockAllowed is the default suite's scope configuration: the
// import-path prefixes where wall-clock time is legitimate. The CLI
// layer times real host work (benchmark wall columns, progress lines).
var wallClockAllowed = []string{"repro/cmd/"}

// Suite returns the analyzers configured for this repository, in the
// stable order the driver reports them.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NewWalltime(wallClockAllowed...),
		NewMapOrder(),
		NewSpanBalance(),
	}
}

// Package is one type-checked package as LoadModule loads it.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies the analyzers to pkg and returns their diagnostics in
// file/position order; findings in _test.go files are dropped.
func Run(pkg *Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			if strings.HasSuffix(pkg.Fset.Position(d.Pos).Filename, "_test.go") {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// hasPrefixAny reports whether path equals one of the prefixes or
// sits beneath one (prefix match at a path-segment boundary, or a
// trailing-slash prefix as written).
func hasPrefixAny(path string, prefixes []string) bool {
	for _, pre := range prefixes {
		if path == pre || strings.HasPrefix(path, pre) && (strings.HasSuffix(pre, "/") || len(path) > len(pre) && path[len(pre)] == '/') {
			return true
		}
	}
	return false
}

// inspectScope walks body without descending into nested function
// literals, which are their own scopes. Deferred calls are delivered as
// DeferStmt (their CallExpr is not re-delivered).
func inspectScope(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			fn(n)
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if _, ok := a.(*ast.FuncLit); ok {
						return false
					}
					fn(a)
					return true
				})
			}
			return false
		default:
			fn(n)
		}
		return true
	})
}
