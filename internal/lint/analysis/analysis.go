// Package analysis is a self-contained core of the
// golang.org/x/tools/go/analysis API, reimplemented on the standard
// library so the repository's static checks build without network
// access or external modules. The shapes (Analyzer, Pass, Diagnostic)
// deliberately mirror x/tools so the suite can migrate to the real
// framework by swapping this import.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics through its Pass. Drivers (the linttest harness, the
// in-repo self-check test) construct the Pass, run the analyzer, and
// decide how to surface the diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the -json
	// report's counts. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph help text: what invariant the check
	// enforces and why.
	Doc string

	// Run applies the check to a single package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install it; analyzers
	// normally call Reportf instead.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // the reporting analyzer's name
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// NewInfo returns a types.Info with every map an analyzer in this
// suite consults pre-allocated. Drivers pass it to types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Callee resolves the called function or method of a call expression
// to its types.Func, or nil for calls through function values,
// builtins, and type conversions. It follows both plain identifiers
// (possibly dot-imported or aliased) and selector expressions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgpath.name (not a method).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgpath, name string) bool {
	fn := Callee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgpath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}
