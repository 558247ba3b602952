package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// NewMapOrder returns the maporder analyzer. Go randomizes map
// iteration order, so any map range whose iterations reach emitted
// output — figure tables, CSV rows, trace events — makes that output
// differ run to run, which is exactly what broke "byte-identical
// figures" gates in the past. The analyzer flags, inside each
// function:
//
//   - emission calls (fmt.Print*/Fprint*, csv.Writer.Write/WriteAll,
//     Table.AddRow, and the three sinks every capture is compared
//     through: audit Recorder.Record, the audit Digest's Write* and
//     netsim Endpoint.Send*) directly inside a body of a range over a
//     map, and
//   - slices appended to inside such a body that later feed an
//     emission call (or strings.Join) in the same function without
//     ever being passed to sort.* or slices.Sort*.
//
// The fix is mechanical: collect, sort, then emit.
func NewMapOrder() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "maporder",
		Doc: "flag map iteration order leaking into emitted output without an intervening sort; " +
			"nondeterministic emission order breaks byte-identical figure reproduction",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkMapOrder(pass, fd.Body)
			}
		}
		return nil
	}
	return a
}

func checkMapOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	reported := make(map[token.Pos]bool)
	// accums maps each outer-declared slice that a map-range body
	// appends to onto the position of its first such append.
	accums := make(map[types.Object]token.Pos)

	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapExpr(pass, rs.X) {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if isOrderSink(pass, m) && !reported[m.Pos()] {
					reported[m.Pos()] = true
					pass.Reportf(m.Pos(), "output emitted inside a range over a map follows random iteration order: collect, sort, then emit")
				}
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					obj := appendTarget(pass, m, i, rhs)
					if obj == nil {
						continue
					}
					// Only accumulation across iterations leaks order:
					// the slice must outlive the range body.
					if obj.Pos() >= rs.Body.Pos() && obj.Pos() < rs.Body.End() {
						continue
					}
					if _, seen := accums[obj]; !seen {
						accums[obj] = m.Pos()
					}
				}
			}
			return true
		})
		return true
	})

	if len(accums) == 0 {
		return
	}
	sorted := make(map[types.Object]bool)
	emitted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		// A sink inside a range over a tracked slice consumes it in
		// accumulation order just as surely as passing it whole.
		if rs, ok := n.(*ast.RangeStmt); ok {
			id, ok := ast.Unparen(rs.X).(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if _, tracked := accums[obj]; !tracked {
				return true
			}
			ast.Inspect(rs.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isOrderSink(pass, call) {
					emitted[obj] = true
				}
				return true
			})
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isSort := isSortCall(pass, call)
		isEmit := isOrderSink(pass, call)
		if !isSort && !isEmit {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(e ast.Node) bool {
				id, ok := e.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil {
					return true
				}
				if _, tracked := accums[obj]; !tracked {
					return true
				}
				if isSort {
					sorted[obj] = true
				} else {
					emitted[obj] = true
				}
				return true
			})
		}
		return true
	})
	for obj, pos := range accums {
		if emitted[obj] && !sorted[obj] {
			pass.Reportf(pos, "%s accumulates elements in map iteration order and feeds output without a sort: sort it before emitting", obj.Name())
		}
	}
}

// isOrderSink reports whether the order of calls to call, or of the
// elements of its arguments, is output: an emission call or a
// strings.Join.
func isOrderSink(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isEmissionCall(pass, call) || analysis.IsPkgFunc(pass.TypesInfo, call, "strings", "Join")
}

func isMapExpr(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// appendTarget returns the object of v for statements of the form
// v = append(v, ...) (or v := append(v, ...)), and nil otherwise.
func appendTarget(pass *analysis.Pass, assign *ast.AssignStmt, i int, rhs ast.Expr) types.Object {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
		return nil
	}
	if i >= len(assign.Lhs) {
		return nil
	}
	lhs, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Uses[lhs]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[lhs]
}

// isEmissionCall reports whether call writes formatted output: the
// fmt print family, encoding/csv record writes, the repository's
// metrics table rows, audit records and digest writes, or netsim sends.
func isEmissionCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
			return true
		}
		return false
	}
	switch fn.Name() {
	case "Write", "WriteAll":
		return namedRecv(sig) == "encoding/csv.Writer"
	case "AddRow":
		return true // the repo's metrics.Table row sink (name-matched so fixtures can model it)
	case "Record":
		return recvName(sig) == "Recorder" // audit: the order of events is the recording
	case "WriteString", "WriteInt", "WriteUint", "WriteBool":
		return recvName(sig) == "Digest" // audit: the order of writes is the sum
	}
	// netsim: the order of sends is the order of deliveries.
	return strings.HasPrefix(fn.Name(), "Send") && recvName(sig) == "Endpoint"
}

// recvName is the receiver's type name without its package, so that
// fixtures can model the repository's types.
func recvName(sig *types.Signature) string {
	name := namedRecv(sig)
	return name[strings.LastIndexByte(name, '.')+1:]
}

// isSortCall reports whether call invokes anything from package sort
// or a Sort*/Compact*/reverse-style ordering helper from slices.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// namedRecv renders the receiver's named type as "pkgpath.Name",
// dereferencing a pointer receiver.
func namedRecv(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}
