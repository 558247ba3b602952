package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
)

// NewLockDiscipline returns the lockdiscipline analyzer for the
// packages matching the given import-path prefixes (all packages when
// none are given). Within each function scope (function literals are
// independent scopes — a goroutine body balances its own locks) it
// reports, per mutex expression:
//
//   - Lock/RLock with no matching Unlock/RUnlock (direct or deferred)
//     anywhere in the scope. Hand-off locking across functions is a
//     deliberate protocol and must carry a //lint:ignore explaining it.
//   - more deferred Unlocks than Locks — a deferred double unlock
//     that panics at runtime on the path that reaches both defers.
//   - sync.Mutex/RWMutex values copied by value: value parameters,
//     plain value assignments, and range-value copies of types that
//     contain a lock.
//
// Direct (non-deferred) Unlock imbalances are deliberately not
// counted: early-return branches legitimately unlock more than once
// textually.
func NewLockDiscipline(scope ...string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockdiscipline",
		Doc: "flag Lock without a same-function Unlock, deferred double unlocks, and locks " +
			"copied by value in the scheduler/server/network/trace hot paths",
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
						checkLockScope(pass, n.Body)
						checkValueParams(pass, n.Type)
					}
				case *ast.FuncLit:
					checkLockScope(pass, n.Body)
					checkValueParams(pass, n.Type)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// lockUse tallies the lock traffic for one mutex expression within
// one function scope.
type lockUse struct {
	pos                    token.Pos // first Lock (or first use)
	locks, rlocks          int
	unlocks, runlocks      int // direct or deferred
	deferUnl, deferRUnlock int
	lastDefer              token.Pos
}

func checkLockScope(pass *analysis.Pass, body *ast.BlockStmt) {
	uses := make(map[string]*lockUse)
	order := []string{}
	record := func(call *ast.CallExpr, deferred bool) {
		name, key := lockMethod(pass, call)
		if name == "" {
			return
		}
		u := uses[key]
		if u == nil {
			u = &lockUse{pos: call.Pos()}
			uses[key] = u
			order = append(order, key)
		}
		switch name {
		case "Lock", "TryLock":
			if u.locks == 0 {
				u.pos = call.Pos()
			}
			u.locks++
		case "RLock", "TryRLock":
			u.rlocks++
		case "Unlock":
			u.unlocks++
			if deferred {
				u.deferUnl++
				u.lastDefer = call.Pos()
			}
		case "RUnlock":
			u.runlocks++
			if deferred {
				u.deferRUnlock++
				u.lastDefer = call.Pos()
			}
		}
	}

	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			record(n.Call, true)
		case *ast.CallExpr:
			record(n, false)
		case *ast.AssignStmt:
			checkValueCopy(pass, n)
		case *ast.RangeStmt:
			checkRangeCopy(pass, n)
		}
	})

	for _, key := range order {
		u := uses[key]
		if u.locks > 0 && u.unlocks == 0 {
			pass.Reportf(u.pos, "%s.Lock() with no %s.Unlock() on any path in this function: unlock (usually via defer) in the same scope, or //lint:ignore with the hand-off protocol", key, key)
		}
		if u.rlocks > 0 && u.runlocks == 0 {
			pass.Reportf(u.pos, "%s.RLock() with no %s.RUnlock() on any path in this function", key, key)
		}
		if u.locks > 0 && u.deferUnl > u.locks {
			pass.Reportf(u.lastDefer, "%d deferred %s.Unlock() for %d %s.Lock(): the path reaching every defer unlocks twice and panics", u.deferUnl, key, u.locks, key)
		}
		if u.rlocks > 0 && u.deferRUnlock > u.rlocks {
			pass.Reportf(u.lastDefer, "%d deferred %s.RUnlock() for %d %s.RLock()", u.deferRUnlock, key, u.rlocks, key)
		}
	}

	checkDeferredDoubleUnlock(pass, body, uses, order)
}

// checkDeferredDoubleUnlock is the path-sensitive companion to the
// textual defer tally above: a `defer mu.Unlock()` registered on one
// branch followed by a manual `mu.Unlock()` on the fallthrough path
// unlocks twice when that path returns — the counts balance, so only
// a CFG can see it. Per mutex key we run a forward may-analysis with
// two facts, "a deferred unlock is registered and the mutex is held"
// and "... and the mutex has since been manually unlocked"; a Lock
// moves the second state back to the first (the unlock/relock dance
// around a blocking call is legal), so reaching function exit in the
// unlocked state is exactly the panic.
func checkDeferredDoubleUnlock(pass *analysis.Pass, body *ast.BlockStmt, uses map[string]*lockUse, order []string) {
	type vkey struct {
		key  string
		read bool
	}
	var keys []vkey
	idx := map[vkey]int{}
	for _, k := range order {
		u := uses[k]
		if u.deferUnl > 0 && u.unlocks > u.deferUnl {
			idx[vkey{k, false}] = len(keys)
			keys = append(keys, vkey{k, false})
		}
		if u.deferRUnlock > 0 && u.runlocks > u.deferRUnlock {
			idx[vkey{k, true}] = len(keys)
			keys = append(keys, vkey{k, true})
		}
	}
	if len(keys) == 0 {
		return
	}
	held := func(i int) int { return 2 * i }
	unheld := func(i int) int { return 2*i + 1 }

	const (
		opDeferUnlock = iota
		opManualUnlock
		opLock
		opTryLock
	)
	type lockOp struct {
		i, kind int
	}

	g := cfg.New(body)
	ops := make([][]lockOp, len(g.Blocks))
	firstDefer := make([]token.Pos, len(keys))
	classify := func(method string) (read bool, kind int, ok bool) {
		switch method {
		case "Lock":
			return false, opLock, true
		case "TryLock":
			return false, opTryLock, true
		case "RLock":
			return true, opLock, true
		case "TryRLock":
			return true, opTryLock, true
		case "Unlock":
			return false, opManualUnlock, true
		case "RUnlock":
			return true, opManualUnlock, true
		}
		return false, 0, false
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			scanLockOps(pass, n, func(method, key string, deferred bool, call *ast.CallExpr) {
				read, kind, ok := classify(method)
				if !ok {
					return
				}
				i, tracked := idx[vkey{key, read}]
				if !tracked {
					return
				}
				if deferred && kind == opManualUnlock {
					kind = opDeferUnlock
					if firstDefer[i] == token.NoPos || call.Pos() < firstDefer[i] {
						firstDefer[i] = call.Pos()
					}
				}
				ops[b.Index] = append(ops[b.Index], lockOp{i, kind})
			})
		}
	}

	res := cfg.Solve(g, cfg.Problem{
		NumFacts: 2 * len(keys),
		Transfer: func(b *cfg.Block, facts cfg.Bits) {
			for _, op := range ops[b.Index] {
				switch op.kind {
				case opDeferUnlock:
					facts.Set(held(op.i))
				case opManualUnlock:
					if facts.Has(held(op.i)) {
						facts.Clear(held(op.i))
						facts.Set(unheld(op.i))
					}
				case opLock:
					if facts.Has(unheld(op.i)) {
						facts.Clear(unheld(op.i))
						facts.Set(held(op.i))
					}
				case opTryLock:
					// The attempt may fail: the unlocked state
					// survives alongside the relocked one.
					if facts.Has(unheld(op.i)) {
						facts.Set(held(op.i))
					}
				}
			}
		},
	})

	atExit := res.In[g.Exit.Index]
	for i, vk := range keys {
		if !atExit.Has(unheld(i)) || firstDefer[i] == token.NoPos {
			continue
		}
		unl, lk := "Unlock", "Lock"
		if vk.read {
			unl, lk = "RUnlock", "RLock"
		}
		pass.Reportf(firstDefer[i],
			"deferred %s.%s() runs after %s is already unlocked on some path: a manual %s.%s() follows this defer with no %s.%s() before return, so the defer panics",
			vk.key, unl, vk.key, vk.key, unl, vk.key, lk)
	}
}

// scanLockOps reports every mutex operation inside n in source order,
// marking operations registered via defer. Function literals are
// their own lock scopes and are skipped; defer argument expressions
// are evaluated immediately, so calls inside them count as direct.
func scanLockOps(pass *analysis.Pass, n ast.Node, fn func(method, key string, deferred bool, call *ast.CallExpr)) {
	var scan func(ast.Node)
	scan = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.RangeStmt:
				// A range.head block carries the whole RangeStmt,
				// but only the ranged-over expression evaluates
				// there — the body belongs to other blocks.
				scan(x.X)
				return false
			case *ast.DeferStmt:
				if m, k := lockMethod(pass, x.Call); m != "" {
					fn(m, k, true, x.Call)
				}
				for _, arg := range x.Call.Args {
					scan(arg)
				}
				return false
			case *ast.CallExpr:
				if m, k := lockMethod(pass, x); m != "" {
					fn(m, k, false, x)
				}
			}
			return true
		})
	}
	scan(n)
}

// inspectScope walks body without descending into nested function
// literals, which are their own lock scopes. Deferred calls are
// delivered as DeferStmt (their CallExpr is not re-delivered).
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

// lockMethod resolves call to a sync.Mutex/RWMutex method and returns
// the method name and a stable string key for the receiver
// expression; it returns "" when call is not a lock operation.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return fn.Name(), exprKey(sel.X)
	}
	return "", ""
}

// exprKey renders a receiver expression as a stable key: selector
// chains and identifiers print naturally; anything else keys by
// position so distinct expressions never alias.
func exprKey(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.IndexExpr:
		return exprKey(x.X) + "[...]"
	default:
		return fmt.Sprintf("expr@%d", x.Pos())
	}
}

// checkValueParams flags function parameters that carry a lock by
// value: the callee operates on a copy, so the caller's mutex never
// sees the callee's Lock.
func checkValueParams(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if containsLock(tv.Type, nil) {
			pass.Reportf(field.Type.Pos(), "parameter passes a lock by value (%s contains a sync mutex): pass a pointer", tv.Type)
		}
	}
}

// checkValueCopy flags assignments that copy an existing
// lock-containing value (composite-literal initialization is fine —
// a zero mutex may be moved before first use).
func checkValueCopy(pass *analysis.Pass, assign *ast.AssignStmt) {
	for i, rhs := range assign.Rhs {
		switch ast.Unparen(rhs).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			continue
		}
		tv, ok := pass.TypesInfo.Types[rhs]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if containsLock(tv.Type, nil) {
			pos := rhs.Pos()
			if i < len(assign.Lhs) {
				pos = assign.Lhs[i].Pos()
			}
			pass.Reportf(pos, "assignment copies a lock by value (%s contains a sync mutex)", tv.Type)
		}
	}
}

// checkRangeCopy flags `for _, v := range xs` when each iteration
// copies a lock-containing element into v.
func checkRangeCopy(pass *analysis.Pass, rs *ast.RangeStmt) {
	id, ok := rs.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil || obj.Type() == nil {
		return
	}
	if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
		return
	}
	if containsLock(obj.Type(), nil) {
		pass.Reportf(id.Pos(), "range copies a lock by value (%s contains a sync mutex): range over indices or pointers", obj.Type())
	}
}

// containsLock reports whether t is, or transitively contains by
// value, a sync.Mutex or sync.RWMutex.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}
