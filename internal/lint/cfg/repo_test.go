package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every function body in the two hottest actor packages must build a
// well-formed CFG: mirrored succ/pred edges, a single exit set (every
// return edges to the unique Exit block), and no reachable dead end
// that is not an explicit terminator (panic or an empty select).
func TestRepoFunctionsBuildWellFormedCFGs(t *testing.T) {
	for _, pkg := range []string{"pbs", "maui"} {
		dir := filepath.Join("..", "..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		fns := 0
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body == nil {
					return true
				}
				fns++
				g := New(body)
				checkWellFormed(t, g, fset, body)
				return true
			})
		}
		if fns == 0 {
			t.Fatalf("no functions found in %s", dir)
		}
		t.Logf("%s: %d function bodies built", pkg, fns)
	}
}

func checkWellFormed(t *testing.T, g *CFG, fset *token.FileSet, body *ast.BlockStmt) {
	t.Helper()
	pos := fset.Position(body.Pos())

	// Succs and Preds mirror each other exactly.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				t.Errorf("%s: b%d -> b%d missing reverse edge", pos, b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				t.Errorf("%s: b%d <- b%d missing forward edge", pos, b.Index, p.Index)
			}
		}
	}

	// Entry and Exit are well formed.
	if len(g.Entry.Preds) != 0 {
		t.Errorf("%s: entry has predecessors", pos)
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("%s: exit has successors", pos)
	}

	// Single exit set: every return statement's block edges straight
	// to the unique Exit.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Errorf("%s: return in b%d does not edge to exit", pos, b.Index)
				}
			}
		}
	}

	// Connectivity: every reachable block either reaches Exit or
	// ends the path explicitly (panic/no-return call, select{}, or
	// spinning in an infinite loop — which still has successors).
	reach := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	for b := range reach {
		if b == g.Exit || len(b.Succs) > 0 {
			continue
		}
		// Dead end: must be an explicit terminator.
		if !endsWithTerminator(b) {
			t.Errorf("%s: reachable block b%d (%s) dead-ends without panic/select{}",
				pos, b.Index, b.Kind)
		}
	}

	// Unreachable blocks must genuinely be unreachable from entry
	// (the builder only creates them for dead code and empty joins).
	for _, b := range g.Blocks {
		if !reach[b] && len(b.Preds) != 0 {
			for _, p := range b.Preds {
				if reach[p] {
					t.Errorf("%s: block b%d has reachable pred b%d but was not reached",
						pos, b.Index, p.Index)
				}
			}
		}
	}
}

func containsBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

func endsWithTerminator(b *Block) bool {
	if b.Kind == "select.head" {
		return true // select{} blocks forever
	}
	if len(b.Nodes) == 0 {
		return false
	}
	last := b.Nodes[len(b.Nodes)-1]
	es, ok := last.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
