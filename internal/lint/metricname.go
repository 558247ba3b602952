package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// NewMetricName returns the metricname analyzer: every instrument
// name handed to the telemetry registry ((*telemetry.Registry)
// Counter/Gauge/Histogram/Occupancy) must be a compile-time
// constant. A name assembled at runtime — fmt.Sprintf over a host or
// link, a loop variable, a parameter — creates one instrument per
// distinct string: metric cardinality grows with cluster size, scrape
// output stops being byte-identical across configurations, and the
// registry's get-or-create map becomes an unbounded leak. Per-entity
// detail belongs in span annotations; instruments keep a fixed,
// greppable name set.
func NewMetricName() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "metricname",
		Doc: "flag instrument names that are not compile-time constants in calls to the " +
			"telemetry registry (Counter/Gauge/Histogram/Occupancy): dynamic names make " +
			"metric cardinality unbounded",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				what := metricNameCall(pass, call)
				if what == "" || len(call.Args) == 0 {
					return true
				}
				arg := call.Args[0]
				if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
					return true // constant-folded by the type checker
				}
				pass.Reportf(arg.Pos(), "instrument name passed to %s must be a compile-time constant (got a runtime expression): dynamic names create unbounded metric cardinality; put per-entity detail in span annotations instead", what)
				return true
			})
		}
		return nil
	}
	return a
}

// metricNameCall reports whether call names an instrument: a method
// of the telemetry registry whose first parameter is the instrument
// name. It returns a human-readable method label,
// or "" for everything else. Matching is by package, receiver, and
// method name — the same resolution the other analyzers use, so both
// the real packages and the test fixtures qualify.
func metricNameCall(pass *analysis.Pass, call *ast.CallExpr) string {
	if _, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok {
		return ""
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if fn.Pkg().Name() != "telemetry" || recvTypeName(sig.Recv().Type()) != "Registry" {
		return ""
	}
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram", "Occupancy":
		return "(*telemetry.Registry)." + fn.Name()
	}
	return ""
}

// recvTypeName unwraps a method receiver to its named type.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
