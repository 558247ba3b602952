package pbs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"testing"
)

// wireConsumers is the batch system's message table: every struct
// proto.go declares, and where it is taken off the wire. A file name
// is the daemon whose type switch or type assertion consumes the
// message; a message name marks a sub-message that only travels inside
// that message; "" marks a message whose receivers take any payload on
// their endpoint (the schedulers treat every message as a kick).
var wireConsumers = map[string]string{
	// Client (IFL) <-> server.
	"SubmitReq": "server.go", "SubmitResp": "ifl.go",
	"StatReq": "server.go", "StatResp": "ifl.go",
	"NodesReq": "server.go", "NodesResp": "ifl.go",
	"AlterReq": "server.go", "AlterResp": "ifl.go",
	"ListReq": "server.go", "ListResp": "ifl.go",
	"HoldReq": "server.go", "HoldResp": "ifl.go",
	"DeleteReq": "server.go", "DeleteResp": "ifl.go",
	"WaitReq": "server.go", "WaitResp": "ifl.go",
	"DynGetReq": "server.go", "DynGetResp": "ifl.go",
	"DynFreeReq": "server.go", "DynFreeResp": "ifl.go",

	// Scheduler <-> server.
	"SchedKick":     "",
	"SchedInfoReq":  "server.go",
	"SchedInfoResp": "mirror.go",
	"SchedDynView":  "SchedInfoResp",
	"NodeDelta":     "SchedInfoResp",
	"SchedJobView":  "SchedInfoResp",
	"AllocCmd":      "server.go",
	"DynAllocCmd":   "server.go",

	// Server <-> mom, and mom <-> mom.
	"RunJobMsg":     "mom.go",
	"JoinJobMsg":    "mom.go",
	"JoinAck":       "mom.go",
	"StartTaskMsg":  "mom.go",
	"TaskDoneMsg":   "mom.go",
	"JobStartedMsg": "server.go",
	"JobDoneMsg":    "server.go",
	"ReleaseJobMsg": "mom.go",
	"DynAddMsg":     "mom.go",
	"DynJoinJobMsg": "mom.go",
	"DynJoinAck":    "mom.go",
	"DynAddAck":     "server.go",
	"UpdateJobMsg":  "mom.go",
	"DynRemoveMsg":  "mom.go",
	"DisJoinJobMsg": "mom.go",
	"DisJoinAck":    "mom.go",
	"AbortJobMsg":   "mom.go",
	"HeartbeatMsg":  "server.go",
	"NodeLostMsg":   "mom.go",
}

// TestEveryWireMessageHasAConsumer holds wireConsumers to the source:
// the table names exactly the structs proto.go declares, every
// sub-message is a field type of its carrier, and every other message
// is a type-switch case or type assertion in its consumer file. A
// message nobody dispatches on is dead protocol surface.
func TestEveryWireMessageHasAConsumer(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	structs := map[string]*ast.StructType{}
	ast.Inspect(parse("proto.go"), func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				structs[ts.Name.Name] = st
			}
		}
		return true
	})
	for name := range structs {
		if _, ok := wireConsumers[name]; !ok {
			t.Errorf("%s: declared in proto.go but has no row in wireConsumers", name)
		}
	}
	consumed := map[string]map[string]bool{} // file -> type names it dispatches on
	names := make([]string, 0, len(wireConsumers))
	for name := range wireConsumers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		consumer := wireConsumers[name]
		switch carrier, isSub := structs[consumer]; {
		case structs[name] == nil:
			t.Errorf("%s: has a row in wireConsumers but proto.go declares no such struct", name)
		case consumer == "":
		case isSub:
			if !mentions(carrier, name) {
				t.Errorf("%s: no field of %s carries it", name, consumer)
			}
		default:
			if consumed[consumer] == nil {
				consumed[consumer] = dispatchedTypes(parse(consumer))
			}
			if !consumed[consumer][name] {
				t.Errorf("%s: no type switch or assertion in %s consumes it", name, consumer)
			}
		}
	}
}

// dispatchedTypes returns the type names f switches or asserts on.
func dispatchedTypes(f *ast.File) map[string]bool {
	types := map[string]bool{}
	add := func(e ast.Expr) {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if id, ok := e.(*ast.Ident); ok {
			types[id.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					add(e)
				}
			}
		case *ast.TypeAssertExpr:
			add(n.Type) // nil for the x.(type) of a switch
		}
		return true
	})
	return types
}

// mentions reports whether name appears in any field type of st.
func mentions(st *ast.StructType, name string) bool {
	found := false
	for _, field := range st.Fields.List {
		ast.Inspect(field.Type, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}
