// Package lint is daclint: a suite of static analyzers that enforce
// the simulator's determinism and virtual-time invariants before they
// can cost a flaky benchmark gate.
//
// The suite (see Suite) ships eight analyzers:
//
//   - walltime: no wall-clock time (time.Now, time.Sleep, ...) in
//     simulation code — virtual time must come from internal/sim.
//   - seededrand: no process-global or unseeded math/rand — every
//     random stream must be a seeded, trial-owned source so trial
//     parallelism stays reproducible.
//   - maporder: no map iteration order leaking into emitted output
//     (tables, CSV, traces) without an intervening sort.
//   - lockdiscipline: Lock without a same-function Unlock, surplus
//     Unlocks, and locks copied by value in the pbs/maui/netsim/trace
//     hot paths.
//   - spanbalance: every trace span opened in a function
//     (Tracer.Start, Span.Child) must reach an End in that scope or
//     be handed off — an open span truncates the causal chains the
//     critical-path profiler reconstructs.
//   - poolbalance: pooled values (netsim arena messages, pooled
//     simulations from sim.Acquire, sync.Pool) must be released
//     exactly once on every control-flow path or escape to an owner —
//     a leaked message silently degrades the arena to allocation.
//   - handlerexhaustive: every wire-message struct declared in a
//     package's proto.go must be consumed by a payload type-switch or
//     assertion, and every dispatch case must name a protocol type.
//   - digestdet: audit digest providers (func(*audit.Digest)) must be
//     deterministic — no unsorted map iteration feeding digest writes
//     and no wall-clock reads, since digest sums back the
//     byte-identity gates across parallelism levels and server modes.
//
// poolbalance and lockdiscipline are flow-sensitive: they build
// intra-procedural CFGs (internal/lint/cfg) and solve forward
// bitvector dataflow problems over them, so a diagnostic names the
// leaking path rather than a textual tally. lockdiscipline also uses
// the CFG to catch a conditionally deferred unlock followed by a
// manual unlock.
//
// False positives are suppressed in place with a reasoned directive:
//
//	//lint:ignore walltime host-side progress logging, not sim time
//
// The directive names one analyzer (or a comma-separated list) and
// requires a non-empty reason; it applies to findings on its own line
// and on the line directly below. Directives without a reason are
// themselves diagnostics. Findings in _test.go files are never
// reported: tests legitimately measure wall time and spawn raw
// goroutines to exercise concurrency.
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

// Repo-specific scope configuration for the default suite.
var (
	// wallClockAllowed lists import-path prefixes where wall-clock
	// time is legitimate: the CLI layer times real host work
	// (benchmark wall columns, progress lines), and the lint driver
	// itself is host-side tooling (the CFG builder times its own
	// builds for the CI summary).
	wallClockAllowed = []string{"repro/cmd/", "repro/internal/lint"}

	// lockScope is where lockdiscipline applies: the scheduler,
	// server, network, and tracing hot paths named by the invariant.
	lockScope = []string{
		"repro/internal/pbs",
		"repro/internal/maui",
		"repro/internal/netsim",
		"repro/internal/trace",
	}

	// poolSources are the repo's arena/pool acquisition points for
	// poolbalance ((*sync.Pool).Get is built in): every netsim Recv
	// variant hands out an arena message the caller must Release, and
	// sim.Acquire hands out a pooled Simulation.
	poolSources = []string{
		"(*repro/internal/netsim.Endpoint).Recv",
		"(*repro/internal/netsim.Endpoint).RecvTimeout",
		"(*repro/internal/netsim.Endpoint).RecvMatch",
		"(*repro/internal/netsim.Endpoint).RecvMatchTimeout",
		"repro/internal/sim.Acquire",
	}
)

// Suite returns the analyzers configured for this repository, in the
// stable order the driver reports them.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NewWalltime(wallClockAllowed...),
		NewSeededRand(),
		NewMapOrder(),
		NewLockDiscipline(lockScope...),
		NewSpanBalance(),
		NewPoolBalance(poolSources...),
		NewHandlerExhaustive(),
		NewDigestDet(),
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

// Run applies the analyzers to pkg and returns the surviving
// diagnostics in file/position order: findings in _test.go files are
// dropped, and findings covered by a well-formed //lint:ignore
// directive are suppressed. Malformed directives (no reason) are
// reported as findings of the pseudo-analyzer "ignore".
func Run(pkg *Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	dirs := collectDirectives(pkg)
	var out []analysis.Diagnostic
	for _, d := range dirs {
		if d.malformed {
			out = append(out, analysis.Diagnostic{
				Pos:      d.pos,
				Category: "ignore",
				Message:  "//lint:ignore needs an analyzer list and a non-empty reason: //lint:ignore <names> <reason>",
			})
		}
	}
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
			p := pkg.Fset.Position(d.Pos)
			if strings.HasSuffix(p.Filename, "_test.go") {
				return
			}
			if suppressed(dirs, a.Name, p) {
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

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos       token.Pos
	file      string
	line      int
	analyzers []string
	malformed bool
}

const ignorePrefix = "//lint:ignore"

func collectDirectives(pkg *Package) []directive {
	var dirs []directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignored — not ours
				}
				p := pkg.Fset.Position(c.Pos())
				d := directive{pos: c.Pos(), file: p.Filename, line: p.Line}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					d.malformed = true // missing names or reason
				} else {
					d.analyzers = strings.Split(fields[0], ",")
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// suppressed reports whether a finding by analyzer name at position p
// is covered by a directive on the same line or the line above.
func suppressed(dirs []directive, name string, p token.Position) bool {
	for _, d := range dirs {
		if d.malformed || d.file != p.Filename {
			continue
		}
		if d.line != p.Line && d.line != p.Line-1 {
			continue
		}
		for _, a := range d.analyzers {
			if a == name || a == "*" {
				return true
			}
		}
	}
	return false
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
