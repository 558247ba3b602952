package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildSrc parses a single function body and builds its CFG.
func buildSrc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return New(fn.Body)
}

// The golden dumps pin the exact topology the builder produces for
// each control shape: block kinds, node counts, edge order (true
// branch first), and which blocks terminate.
func TestGoldenShapes(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{
			name: "if-else",
			body: `
x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=2 cond -> b3 b4
b3 if.then n=1 -> b5
b4 if.else n=1 -> b5
b5 if.done n=1 -> b1`,
		},
		{
			name: "if-no-else-early-return",
			body: `
x := 1
if x > 0 {
	return
}
_ = x`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=2 cond -> b3 b4
b3 if.then n=1 -> b1
b4 if.done n=1 -> b1`,
		},
		{
			name: "for-with-post",
			body: `
s := 0
for i := 0; i < 4; i++ {
	s += i
}
_ = s`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=2 -> b3
b3 for.head n=1 cond -> b4 b5
b4 for.body n=1 -> b6
b5 for.done n=1 -> b1
b6 for.post n=1 -> b3`,
		},
		{
			name: "range-with-continue-and-break",
			body: `
s := 0
for _, v := range []int{1, 2} {
	if v == 1 {
		continue
	}
	if v == 2 {
		break
	}
	s += v
}
_ = s`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=1 -> b3
b3 range.head n=1 -> b4 b5
b4 range.body n=1 cond -> b6 b7
b5 range.done n=1 -> b1
b6 if.then n=1 -> b3
b7 if.done n=1 cond -> b8 b9
b8 if.then n=1 -> b5
b9 if.done n=1 -> b3`,
		},
		{
			name: "switch-with-fallthrough-and-default",
			body: `
x := 1
switch x {
case 1:
	x = 10
	fallthrough
case 2:
	x = 20
default:
	x = 30
}
_ = x`,
			want: `
b0 entry -> b2
b1 exit
b2 switch.head n=4 -> b4 b5 b6
b3 switch.done n=1 -> b1
b4 switch.case n=2 -> b5
b5 switch.case n=1 -> b3
b6 switch.default n=1 -> b3`,
		},
		{
			name: "typeswitch-no-default",
			body: `
var v any = 1
switch v.(type) {
case int:
	v = nil
case string:
	v = nil
}
_ = v`,
			want: `
b0 entry -> b2
b1 exit
b2 typeswitch.head n=4 -> b4 b5 b3
b3 switch.done n=1 -> b1
b4 switch.case n=1 -> b3
b5 switch.case n=1 -> b3`,
		},
		{
			name: "select-with-default",
			body: `
ch := make(chan int)
select {
case v := <-ch:
	_ = v
default:
}
close(ch)`,
			want: `
b0 entry -> b2
b1 exit
b2 select.head n=1 -> b4 b5
b3 select.done n=1 -> b1
b4 select.case n=2 -> b3
b5 select.default -> b3`,
		},
		{
			name: "defer-then-panic",
			body: `
defer println("done")
x := 1
if x > 0 {
	panic("boom")
}
_ = x`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=3 cond -> b3 b4
b3 if.then n=1
b4 if.done n=1 -> b1`,
		},
		{
			name: "labeled-break-from-nested-loop",
			body: `
s := 0
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if i+j > 2 {
			break outer
		}
		s++
	}
}
_ = s`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=1 -> b3
b3 label.outer n=1 -> b4
b4 for.head n=1 cond -> b5 b6
b5 for.body n=1 -> b8
b6 for.done n=1 -> b1
b7 for.post n=1 -> b4
b8 for.head n=1 cond -> b9 b10
b9 for.body n=1 cond -> b12 b13
b10 for.done -> b7
b11 for.post n=1 -> b8
b12 if.then n=1 -> b6
b13 if.done n=1 -> b11`,
		},
		{
			name: "goto-forward",
			body: `
x := 1
if x > 0 {
	goto done
}
x = 2
done:
_ = x`,
			want: `
b0 entry -> b2
b1 exit
b2 body n=2 cond -> b3 b5
b3 if.then n=1 -> b4
b4 label.done n=1 -> b1
b5 if.done n=1 -> b4`,
		},
		{
			name: "infinite-for-with-break",
			body: `
for {
	if true {
		break
	}
}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3
b3 for.head -> b4
b4 for.body n=1 cond -> b6 b7
b5 for.done -> b1
b6 if.then n=1 -> b5
b7 if.done -> b3`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.TrimSpace(buildSrc(t, tc.body).Dump())
			want := strings.TrimSpace(tc.want)
			if got != want {
				t.Errorf("CFG mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// A forward may-analysis on a diamond must union facts at the join,
// and an edge filter must be able to kill a fact on one branch.
func TestSolveForwardMayWithEdgeFilter(t *testing.T) {
	g := buildSrc(t, `
x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`)
	// Fact 0: generated in if.then. Fact 1: generated in if.else but
	// killed on the edge into the join.
	res := Solve(g, Problem{
		NumFacts: 2,
		Transfer: func(b *Block, f Bits) {
			switch b.Kind {
			case "if.then":
				f.Set(0)
			case "if.else":
				f.Set(1)
			}
		},
		Edge: func(from, to *Block, f Bits) Bits {
			if from.Kind == "if.else" && to.Kind == "if.done" {
				c := f.Clone()
				c.Clear(1)
				return c
			}
			return f
		},
	})
	var join *Block
	for _, b := range g.Blocks {
		if b.Kind == "if.done" {
			join = b
		}
	}
	if !res.In[join.Index].Has(0) {
		t.Error("fact 0 should reach the join via the then-branch")
	}
	if res.In[join.Index].Has(1) {
		t.Error("fact 1 should have been killed on the else edge")
	}
}

func TestStatsAdvance(t *testing.T) {
	b0, _ := Stats()
	buildSrc(t, "x := 1\n_ = x")
	b1, d1 := Stats()
	if b1 <= b0 {
		t.Errorf("build counter did not advance: %d -> %d", b0, b1)
	}
	if d1 < 0 {
		t.Errorf("negative cumulative build time %v", d1)
	}
}
