package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
)

// NewPoolBalance returns the poolbalance analyzer: every value
// obtained from an arena or pool source must be released exactly once
// on every control-flow path, unless it provably escapes to a sink
// that takes ownership.
//
// sources name the acquisition points as "pkgpath.Func" for
// package-level functions or "(*pkgpath.Type).Method" for methods;
// (*sync.Pool).Get is always a source. A release is a no-argument
// Release() call on the tracked variable or handing it to
// (*sync.Pool).Put. The analysis is a forward may-analysis over the
// function's CFG with three facts per variable (live, released,
// err-linked) and per-edge refinement: branches on `v == nil` or on
// the error paired with the acquisition kill the variable on the
// nil/error edge, so the ubiquitous `m, err := ep.Recv(); if err !=
// nil { return }` shape needs no annotation.
//
// Ownership hand-offs end tracking instead of demanding a release:
// passing the value as a call argument (other than to Release/Put),
// returning it, storing it into a composite/field/map/slice/channel,
// capturing it in a function literal, or `_ = v`. Reads through the
// value (v.Field, v.Payload.(T), comparisons, method receivers) do
// not count as hand-offs, so holding a message only to read its
// payload and then leaking it is still reported.
func NewPoolBalance(sources ...string) *analysis.Analyzer {
	pats := []callPat{{pkg: "sync", recv: "Pool", name: "Get"}}
	for _, s := range sources {
		pats = append(pats, parseCallPat(s))
	}
	a := &analysis.Analyzer{
		Name: "poolbalance",
		Doc: "flag pool/arena values (netsim messages, sim.Acquire, sync.Pool) that are not " +
			"released exactly once on every control-flow path and do not escape to an owner",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body != nil {
					checkPoolScope(pass, pats, body)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// callPat matches a package function or a method by package path,
// receiver type name (empty for package functions), and name.
type callPat struct{ pkg, recv, name string }

// parseCallPat parses "pkgpath.Func" or "(*pkgpath.Type).Method"
// (the pointer star is optional and ignored for matching).
func parseCallPat(s string) callPat {
	if strings.HasPrefix(s, "(") {
		i := strings.Index(s, ")")
		recv := strings.TrimPrefix(s[1:i], "*")
		name := strings.TrimPrefix(s[i+1:], ".")
		j := strings.LastIndex(recv, ".")
		return callPat{pkg: recv[:j], recv: recv[j+1:], name: name}
	}
	j := strings.LastIndex(s, ".")
	return callPat{pkg: s[:j], name: s[j+1:]}
}

func (p callPat) match(fn *types.Func) bool {
	if fn == nil || fn.Name() != p.name || fn.Pkg() == nil || fn.Pkg().Path() != p.pkg {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if p.recv == "" {
		return recv == nil
	}
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == p.recv
}

// poolVar is one tracked variable within one function scope.
type poolVar struct {
	obj    types.Object
	errObj types.Object // error result paired with the acquisition
	sites  map[*ast.AssignStmt]bool
	source string // acquiring function name, for diagnostics
	pos    token.Pos
}

// Fact indices: three bits per variable.
func factLive(i int) int { return 3 * i }
func factRel(i int) int  { return 3*i + 1 }
func factErr(i int) int  { return 3*i + 2 }

type poolEffectKind int

const (
	poolEffNone poolEffectKind = iota
	poolEffAcquire
	poolEffRelease
	poolEffEscape
	poolEffKill // overwritten without release
)

type poolEffect struct {
	vi      int
	kind    poolEffectKind
	killErr bool // the paired error variable is reassigned here
	node    ast.Node
}

func checkPoolScope(pass *analysis.Pass, pats []callPat, body *ast.BlockStmt) {
	// Pass 1: find acquisition sites in this scope (function literals
	// are independent scopes and are skipped by inspectScope).
	var vars []*poolVar
	byObj := map[types.Object]*poolVar{}
	inspectScope(body, func(n ast.Node) {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return
		}
		fn := sourceCallee(pass, pats, assign.Rhs[0])
		if fn == nil {
			return
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := identObj(pass, id)
		if obj == nil {
			return
		}
		var errObj types.Object
		if len(assign.Lhs) == 2 {
			if eid, ok := assign.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				errObj = identObj(pass, eid)
			}
		}
		v := byObj[obj]
		if v == nil {
			v = &poolVar{obj: obj, errObj: errObj, sites: map[*ast.AssignStmt]bool{},
				source: fn.Name(), pos: id.Pos()}
			byObj[obj] = v
			vars = append(vars, v)
		} else if v.errObj != errObj {
			v.errObj = nil // ambiguous pairing: no err-edge refinement
		}
		v.sites[assign] = true
	})
	if len(vars) == 0 {
		return
	}

	g := cfg.New(body)

	// Precompute per-block effect lists (node order preserved).
	effects := make([][]poolEffect, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			for vi, v := range vars {
				if eff := nodeEffect(pass, pats, n, v); eff.kind != poolEffNone || eff.killErr {
					eff.vi = vi
					eff.node = n
					effects[b.Index] = append(effects[b.Index], eff)
				}
			}
		}
	}

	apply := func(facts cfg.Bits, eff poolEffect) {
		v := vars[eff.vi]
		switch eff.kind {
		case poolEffAcquire:
			facts.Set(factLive(eff.vi))
			facts.Clear(factRel(eff.vi))
			if v.errObj != nil {
				facts.Set(factErr(eff.vi))
			} else {
				facts.Clear(factErr(eff.vi))
			}
		case poolEffRelease:
			facts.Clear(factLive(eff.vi))
			facts.Set(factRel(eff.vi))
		case poolEffEscape, poolEffKill:
			facts.Clear(factLive(eff.vi))
			facts.Clear(factRel(eff.vi))
			facts.Clear(factErr(eff.vi))
		}
		if eff.killErr && eff.kind != poolEffAcquire {
			facts.Clear(factErr(eff.vi))
		}
	}

	res := cfg.Solve(g, cfg.Problem{
		NumFacts: 3 * len(vars),
		Transfer: func(b *cfg.Block, facts cfg.Bits) {
			for _, eff := range effects[b.Index] {
				apply(facts, eff)
			}
		},
		Edge: func(from, to *cfg.Block, facts cfg.Bits) cfg.Bits {
			return poolEdge(pass, vars, from, to, facts)
		},
	})

	// Replay each block once from its solved in-state to place
	// diagnostics; one report per variable and failure kind.
	reported := map[[2]int]bool{}
	reportOnce := func(vi int, kind int, pos token.Pos, format string, args ...any) {
		if !reported[[2]int{vi, kind}] {
			reported[[2]int{vi, kind}] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, b := range g.Blocks {
		facts := res.In[b.Index].Clone()
		for _, eff := range effects[b.Index] {
			v := vars[eff.vi]
			switch eff.kind {
			case poolEffAcquire:
				if facts.Has(factLive(eff.vi)) {
					reportOnce(eff.vi, 0, eff.node.Pos(),
						"%s is reacquired from %s while a previous acquisition is still unreleased (loop-carried leak)",
						v.obj.Name(), v.source)
				}
			case poolEffRelease:
				if facts.Has(factRel(eff.vi)) {
					reportOnce(eff.vi, 1, eff.node.Pos(),
						"%s may already be released when this release runs (double release on some path)",
						v.obj.Name())
				}
			case poolEffKill:
				if facts.Has(factLive(eff.vi)) {
					reportOnce(eff.vi, 2, eff.node.Pos(),
						"%s is overwritten while still holding an unreleased value from %s",
						v.obj.Name(), v.source)
				}
			}
			apply(facts, eff)
		}
	}

	// Leaks: a variable still live at exit on some path. Name the
	// path by the return that carries the live value out.
	exitIn := res.In[g.Exit.Index]
	for vi, v := range vars {
		if !exitIn.Has(factLive(vi)) {
			continue
		}
		leakPos := v.pos
		at := "the end of the function"
		for _, pred := range g.Exit.Preds {
			if !res.Out[pred.Index].Has(factLive(vi)) {
				continue
			}
			if n := len(pred.Nodes); n > 0 {
				end := pred.Nodes[n-1]
				if _, ok := end.(*ast.ReturnStmt); ok {
					at = "the return at line " + itoa(pass.Fset.Position(end.Pos()).Line)
				} else {
					at = "line " + itoa(pass.Fset.Position(end.End()).Line)
				}
			}
			break
		}
		pass.Reportf(leakPos,
			"%s obtained from %s is not released on the path reaching %s: release it on every path, or hand it to an owner that does",
			v.obj.Name(), v.source, at)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// sourceCallee resolves rhs (possibly wrapped in a type assertion,
// for the sync.Pool Get().(*T) shape) to a configured source call.
func sourceCallee(pass *analysis.Pass, pats []callPat, rhs ast.Expr) *types.Func {
	e := ast.Unparen(rhs)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	for _, p := range pats {
		if p.match(fn) {
			return fn
		}
	}
	return nil
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

func isVarIdent(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

// releaseCall reports whether call releases v: v.Release() with no
// arguments, or pool.Put(v) on a sync.Pool.
func releaseCall(pass *analysis.Pass, call *ast.CallExpr, v *poolVar) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "Release" && len(call.Args) == 0 && isVarIdent(pass, sel.X, v.obj) {
		return true
	}
	if len(call.Args) == 1 && isVarIdent(pass, call.Args[0], v.obj) {
		put := callPat{pkg: "sync", recv: "Pool", name: "Put"}
		if put.match(analysis.Callee(pass.TypesInfo, call)) {
			return true
		}
	}
	return false
}

// nodeEffect classifies what one CFG node does to one tracked
// variable.
func nodeEffect(pass *analysis.Pass, pats []callPat, n ast.Node, v *poolVar) poolEffect {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if v.sites[n] {
			return poolEffect{kind: poolEffAcquire}
		}
		var eff poolEffect
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if o := identObj(pass, id); o != nil {
					if o == v.obj {
						eff.kind = poolEffKill
					}
					if o == v.errObj {
						eff.killErr = true
					}
				}
			}
		}
		for _, rhs := range n.Rhs {
			if escapingUse(pass, rhs, v, true) {
				eff.kind = poolEffEscape
			}
		}
		return eff
	case *ast.DeferStmt:
		if releaseCall(pass, n.Call, v) {
			return poolEffect{kind: poolEffRelease}
		}
		if escapingUse(pass, n.Call, v, false) || deferArgsUse(pass, n.Call, v) {
			return poolEffect{kind: poolEffEscape}
		}
	case *ast.GoStmt:
		// Any use in a go statement hands the value to another
		// goroutine, receiver included.
		if identAppears(pass, n.Call, v.obj) {
			return poolEffect{kind: poolEffEscape}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && releaseCall(pass, call, v) {
			return poolEffect{kind: poolEffRelease}
		}
		if escapingUse(pass, n.X, v, false) {
			return poolEffect{kind: poolEffEscape}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if escapingUse(pass, r, v, true) {
				return poolEffect{kind: poolEffEscape}
			}
		}
	case *ast.SendStmt:
		if escapingUse(pass, n.Chan, v, false) || escapingUse(pass, n.Value, v, true) {
			return poolEffect{kind: poolEffEscape}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						if escapingUse(pass, val, v, true) {
							return poolEffect{kind: poolEffEscape}
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		if escapingUse(pass, n.X, v, false) {
			return poolEffect{kind: poolEffEscape}
		}
	case *ast.IncDecStmt:
		// Arithmetic on something else; never the pooled pointer.
	case ast.Expr:
		// Branch conditions and case guards evaluated in this block.
		if escapingUse(pass, n, v, false) {
			return poolEffect{kind: poolEffEscape}
		}
	}
	return poolEffect{}
}

// deferArgsUse reports whether the deferred call's arguments use v
// (arguments are evaluated at defer time; uses there behave like a
// normal call).
func deferArgsUse(pass *analysis.Pass, call *ast.CallExpr, v *poolVar) bool {
	for _, a := range call.Args {
		if escapingUse(pass, a, v, true) {
			return true
		}
	}
	return false
}

// escapingUse reports whether e contains a use of v in an
// ownership-transferring position. esc says whether v appearing as
// the whole of e (after unwrapping) is itself escaping: true for
// call arguments, return values, stored values; false for an
// expression statement or a branch condition.
func escapingUse(pass *analysis.Pass, e ast.Expr, v *poolVar, esc bool) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		return esc && pass.TypesInfo.Uses[e] == v.obj
	case *ast.ParenExpr:
		return escapingUse(pass, e.X, v, esc)
	case *ast.SelectorExpr:
		// Reading v.Field does not transfer ownership.
		return escapingUse(pass, e.X, v, false)
	case *ast.StarExpr:
		return escapingUse(pass, e.X, v, esc)
	case *ast.TypeAssertExpr:
		return escapingUse(pass, e.X, v, esc)
	case *ast.CallExpr:
		if releaseCall(pass, e, v) {
			return false
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			// Method receiver: calling a method on v is a read,
			// not a hand-off.
			if escapingUse(pass, sel.X, v, false) {
				return true
			}
		} else if escapingUse(pass, e.Fun, v, true) {
			return true
		}
		for _, a := range e.Args {
			if escapingUse(pass, a, v, true) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		// Pointer comparisons and boolean connectives read, never
		// own.
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return escapingUse(pass, e.X, v, false) || escapingUse(pass, e.Y, v, false)
		}
		return escapingUse(pass, e.X, v, esc) || escapingUse(pass, e.Y, v, esc)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return escapingUse(pass, e.X, v, true)
		}
		return escapingUse(pass, e.X, v, false) // <-ch, !x, -x: reads
	case *ast.IndexExpr:
		return escapingUse(pass, e.X, v, false) || escapingUse(pass, e.Index, v, true)
	case *ast.SliceExpr:
		return escapingUse(pass, e.X, v, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if escapingUse(pass, el, v, true) {
				return true
			}
		}
		return false
	case *ast.KeyValueExpr:
		return escapingUse(pass, e.Key, v, true) || escapingUse(pass, e.Value, v, true)
	case *ast.FuncLit:
		// Closure capture: the literal may outlive this scope.
		return identAppears(pass, e.Body, v.obj)
	default:
		return identAppears(pass, e, v.obj)
	}
}

func identAppears(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// poolEdge refines facts along a branch edge: on the edge where the
// tracked variable is nil (v == nil true-edge, v != nil false-edge)
// or where its paired error is non-nil, the variable is dead and
// needs no release.
func poolEdge(pass *analysis.Pass, vars []*poolVar, from, to *cfg.Block, facts cfg.Bits) cfg.Bits {
	if from.Cond == nil || len(from.Succs) < 2 {
		return facts
	}
	be, ok := ast.Unparen(from.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return facts
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilExpr(pass, x) {
		x, y = y, x
	}
	if !isNilExpr(pass, y) {
		return facts
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return facts
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return facts
	}
	trueEdge := to == from.Succs[0]
	var out cfg.Bits
	kill := func(vi int) {
		if out == nil {
			out = facts.Clone()
		}
		out.Clear(factLive(vi))
		out.Clear(factRel(vi))
		out.Clear(factErr(vi))
	}
	for vi, v := range vars {
		if obj == v.obj {
			// v is nil on the EQL true-edge / NEQ false-edge.
			if trueEdge == (be.Op == token.EQL) {
				kill(vi)
			}
		} else if obj == v.errObj && facts.Has(factErr(vi)) {
			// The error is non-nil (so v is nil) on the NEQ
			// true-edge / EQL false-edge.
			if trueEdge == (be.Op == token.NEQ) {
				kill(vi)
			}
		}
	}
	if out == nil {
		return facts
	}
	return out
}

func isNilExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
