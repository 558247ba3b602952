package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// NewSpanBalance returns the spanbalance analyzer for the packages
// matching the given import-path prefixes (all packages when none are
// given). Every trace span opened in a function scope — the result of
// (*trace.Tracer).Start or (*trace.Span).Child — must reach an End in
// that scope (directly or via defer) or be handed off. A span that is
// neither ended nor handed off stays open forever: the chrome export
// closes it at teardown time, the profiler sees a truncated causal
// chain, and the per-phase attribution stops summing to the
// end-to-end latency.
//
// Hand-offs count as balanced because ownership moved: returning the
// span, passing it to another function, storing it in a field, slice,
// map, or channel, and capturing it in a function literal all make
// someone else responsible for the End. Spans whose result is
// discarded outright (a bare call statement, or assignment to _) can
// never be ended and are always reported; use AsyncSpanLinkAt to record an
// already-closed interval instead.
func NewSpanBalance(scope ...string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "spanbalance",
		Doc: "flag trace spans (Tracer.Start, Span.Child) that are neither ended in their " +
			"function scope nor handed off: an open span truncates the causal chains the " +
			"critical-path profiler depends on",
	}
	a.Run = func(pass *analysis.Pass) error {
		if len(scope) > 0 && !hasPrefixAny(pass.Pkg.Path(), scope) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						checkSpanScope(pass, n.Body)
					}
				case *ast.FuncLit:
					checkSpanScope(pass, n.Body)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// spanVar tracks one span-holding variable within one function scope.
type spanVar struct {
	pos     token.Pos // the span-creating call
	name    string
	ended   bool // an End() on the variable is reachable in this scope
	escaped bool // ownership handed off: return, argument, store, capture
}

// checkSpanScope audits one function scope (function literals are
// independent scopes: a span ended inside a spawned closure is a
// hand-off, not a local End).
func checkSpanScope(pass *analysis.Pass, body *ast.BlockStmt) {
	vars := make(map[types.Object]*spanVar)
	var order []types.Object
	track := func(id *ast.Ident, at token.Pos) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		if vars[obj] == nil {
			vars[obj] = &spanVar{pos: at, name: id.Name}
			order = append(order, obj)
		}
	}

	// Pass 1: span creations. Only results bound to a plain variable
	// are tracked; a result stored through a pointer, field, or index
	// is owned by that structure, and a result consumed by a larger
	// expression (argument, return, composite literal) escaped at
	// birth. Results discarded outright are reported immediately.
	creation := func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if spanNewCall(pass, rhs) == nil || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue // stored into a field/slot: owned there
				}
				if id.Name == "_" {
					pass.Reportf(rhs.Pos(), "span result discarded: nothing can End() it; bind and End the span, or record a closed interval with AsyncSpanLinkAt")
					continue
				}
				track(id, rhs.Pos())
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					if spanNewCall(pass, v) == nil || i >= len(vs.Names) {
						continue
					}
					if vs.Names[i].Name == "_" {
						pass.Reportf(v.Pos(), "span result discarded: nothing can End() it; bind and End the span, or record a closed interval with AsyncSpanLinkAt")
						continue
					}
					track(vs.Names[i], v.Pos())
				}
			}
		case *ast.ExprStmt:
			if spanNewCall(pass, n.X) != nil {
				pass.Reportf(n.X.Pos(), "span result discarded: nothing can End() it; bind and End the span, or record a closed interval with AsyncSpanLinkAt")
			}
		}
	}

	// Pass 2: Ends and benign uses. A tracked variable used as the
	// receiver of a span method, or as an assignment target, is not a
	// hand-off; everything else is (pass 3).
	benign := make(map[*ast.Ident]bool)
	use := func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					benign[id] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						benign[id] = true
					}
				}
			}
		case *ast.CallExpr:
			name := spanMethod(pass, n)
			if name == "" {
				return
			}
			sel, _ := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.TypesInfo.Uses[id]
			sv := vars[obj]
			if sv == nil {
				return
			}
			benign[id] = true
			if name == "End" {
				sv.ended = true
			}
		}
	}

	both := func(n ast.Node) {
		creation(n)
		use(n)
		// Deferred calls arrive as the DeferStmt itself; audit the
		// call the same way (defer sp.End() is the canonical balance).
		if d, ok := n.(*ast.DeferStmt); ok {
			use(d.Call)
		}
	}
	inspectScope(body, both)

	if len(vars) == 0 {
		return
	}

	// Pass 3: hand-offs. Any remaining use of a tracked variable —
	// argument, return value, copy, address, channel send, composite
	// literal, capture inside a nested function literal — transfers
	// ownership. This walk deliberately includes function literals:
	// a closure capturing the span is exactly such a transfer.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || benign[id] {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if sv := vars[obj]; sv != nil {
			sv.escaped = true
		}
		return true
	})

	for _, obj := range order {
		sv := vars[obj]
		if !sv.ended && !sv.escaped {
			pass.Reportf(sv.pos, "span %q is never ended in this function and never handed off: End() it on every path (usually via defer), or //lint:ignore spanbalance with the hand-off protocol", sv.name)
		}
	}
}

// spanNewCall reports whether e is a call that opens a trace span:
// a method named Start or Child, defined in a package named "trace",
// returning the span type.
func spanNewCall(pass *analysis.Pass, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "trace" {
		return nil
	}
	if fn.Name() != "Start" && fn.Name() != "Child" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 || !isSpanType(sig.Results().At(0).Type()) {
		return nil
	}
	return call
}

// spanMethod resolves call to a method on the trace span type and
// returns its name ("" when call is something else).
func spanMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	if _, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok {
		return ""
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isSpanType(sig.Recv().Type()) {
		return ""
	}
	return fn.Name()
}

// isSpanType reports whether t is trace.Span (or a pointer to it),
// matched by type and package name so both the real
// repro/internal/trace package and the test fixture qualify.
func isSpanType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil && obj.Pkg().Name() == "trace"
}
