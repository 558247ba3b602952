// Package cfg builds intra-procedural control-flow graphs over
// go/ast function bodies and solves forward may-dataflow problems on
// them. It is the flow-sensitive substrate under the poolbalance and
// path-sensitive lockdiscipline analyzers: pure stdlib, no go/ssa, no
// x/tools.
//
// The graph is statement-granular. Every Block holds the ast.Nodes
// evaluated in it, in program order; branch conditions are appended
// to the block that evaluates them and recorded in Block.Cond, with
// the convention that Succs[0] is the edge taken when Cond is true
// and Succs[1] the edge taken when it is false. Function literals are
// opaque: their bodies never contribute blocks to the enclosing
// graph, so an analysis that cares about a closure builds a separate
// CFG for it.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
	"sync/atomic"
	"time"
)

// A CFG is the control-flow graph of one function body. Entry has no
// predecessors and Exit no successors; every return statement edges
// to Exit, as does falling off the end of the body. Blocks holds
// every block in deterministic construction order, including blocks
// that turned out to be unreachable (dead code after a return, join
// points both of whose arms terminate).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// A Block is a straight-line run of statements. Nodes are the
// ast.Nodes evaluated in the block in program order: statements, and
// for branching blocks the condition expression (also stored in
// Cond). A block with Cond != nil has Succs[0] as its true edge and
// Succs[1] as its false edge. A reachable block with no successors
// terminates the goroutine: a panic or an empty select.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	Cond  ast.Expr
}

// Build-time accounting for the daclint -json report and the CI job
// summary: how many graphs were built and how long construction took
// in aggregate. Host-side tooling time, never simulation time.
var (
	builds     atomic.Int64
	buildNanos atomic.Int64
)

// Stats reports the cumulative number of CFGs built by this process
// and the total wall time spent building them.
func Stats() (builds_ int64, elapsed time.Duration) {
	return builds.Load(), time.Duration(buildNanos.Load())
}

// New builds the CFG of one function body.
func New(body *ast.BlockStmt) *CFG {
	start := time.Now()
	b := &builder{labels: map[string]*Block{}}
	b.cfg = &CFG{}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	first := b.newBlock("body")
	edge(b.cfg.Entry, first)
	b.cur = first
	b.stmtList(body.List)
	b.jumpTo(b.cfg.Exit) // implicit return at the end of the body
	builds.Add(1)
	buildNanos.Add(time.Since(start).Nanoseconds())
	return b.cfg
}

type builder struct {
	cfg     *CFG
	cur     *Block // nil while statically unreachable
	targets *targets
	labels  map[string]*Block // label name → block starting the labeled stmt
}

// targets is one entry of the break/continue/fallthrough resolution
// stack: the innermost enclosing loop, switch, or select.
type targets struct {
	outer         *targets
	label         string
	brk           *Block // break target (always set)
	cont          *Block // continue target; nil for switch/select
	fallthroughTo *Block // next case body; set per switch clause
}

func (b *builder) newBlock(kind string) *Block {
	bl := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, bl)
	return bl
}

func edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jumpTo seals the current block with an edge to dst and marks the
// following code unreachable.
func (b *builder) jumpTo(dst *Block) {
	if b.cur != nil {
		edge(b.cur, dst)
	}
	b.cur = nil
}

// fallInto seals the current block with an edge to dst and continues
// building in dst.
func (b *builder) fallInto(dst *Block) {
	if b.cur != nil {
		edge(b.cur, dst)
	}
	b.cur = dst
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Dead code still gets blocks (with no predecessors) so
		// every statement in the function appears in exactly one
		// block.
		b.cur = b.newBlock("unreachable")
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanic(call) {
			b.cur = nil // control does not continue
		}
	default:
		// Go, defer, assignments, declarations, sends, inc/dec,
		// empty statements: straight-line.
		b.add(s)
	}
}

func isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	cond.Cond = s.Cond
	b.cur = nil

	then := b.newBlock("if.then")
	edge(cond, then) // Succs[0]: condition true
	b.cur = then
	b.stmtList(s.Body.List)
	afterThen := b.cur

	var afterElse *Block
	if s.Else != nil {
		els := b.newBlock("if.else")
		edge(cond, els) // Succs[1]: condition false
		b.cur = els
		b.stmt(s.Else)
		afterElse = b.cur
	}

	done := b.newBlock("if.done")
	if s.Else == nil {
		edge(cond, done) // Succs[1]: condition false
	}
	if afterThen != nil {
		edge(afterThen, done)
	}
	if afterElse != nil {
		edge(afterElse, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.fallInto(head)
	if s.Cond != nil {
		b.add(s.Cond)
		head.Cond = s.Cond
	}
	body := b.newBlock("for.body")
	edge(head, body) // Succs[0]: condition true (or unconditional)
	done := b.newBlock("for.done")
	if s.Cond != nil {
		edge(head, done) // Succs[1]: condition false
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.targets = &targets{outer: b.targets, label: label, brk: done, cont: cont}
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets.outer
	if post != nil {
		b.fallInto(post)
		b.add(s.Post)
		b.jumpTo(head)
	} else {
		b.jumpTo(head)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	b.fallInto(head)
	// The RangeStmt node carries the per-iteration key/value binding
	// and the ranged-over expression.
	head.Nodes = append(head.Nodes, s)
	body := b.newBlock("range.body")
	edge(head, body) // Succs[0]: another element
	done := b.newBlock("range.done")
	edge(head, done) // Succs[1]: exhausted
	b.targets = &targets{outer: b.targets, label: label, brk: done, cont: head}
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets.outer
	b.jumpTo(head)
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	head.Kind = "switch.head"
	b.cur = nil
	b.caseClauses(head, s.Body.List, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	head.Kind = "typeswitch.head"
	b.cur = nil
	b.caseClauses(head, s.Body.List, label, false)
}

// caseClauses wires the shared body structure of expression and type
// switches: the head fans out to every clause body, clause bodies
// join at done, and (for expression switches) fallthrough edges to
// the next clause body in source order.
func (b *builder) caseClauses(head *Block, clauses []ast.Stmt, label string, allowFallthrough bool) {
	done := b.newBlock("switch.done")
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		bodies[i] = b.newBlock(kind)
		// Case guard expressions are evaluated at the head.
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
		edge(head, bodies[i])
	}
	if !hasDefault {
		edge(head, done) // no case matched
	}
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		t := &targets{outer: b.targets, label: label, brk: done}
		if allowFallthrough && i+1 < len(bodies) {
			t.fallthroughTo = bodies[i+1]
		}
		b.targets = t
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		b.targets = b.targets.outer
		b.jumpTo(done)
	}
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	head.Kind = "select.head"
	b.cur = nil
	done := b.newBlock("select.done")
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		body := b.newBlock(kind)
		edge(head, body)
		b.cur = body
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.targets = &targets{outer: b.targets, label: label, brk: done}
		b.stmtList(cc.Body)
		b.targets = b.targets.outer
		b.jumpTo(done)
	}
	// select {} with no cases blocks forever: head keeps zero
	// successors and legitimately terminates the path.
	b.cur = done
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	lb := b.labelBlock(s.Label.Name)
	b.fallInto(lb)
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

// labelBlock returns (creating on first use, so forward gotos work)
// the block that starts the statement carrying the given label.
func (b *builder) labelBlock(name string) *Block {
	if bl, ok := b.labels[name]; ok {
		return bl
	}
	bl := b.newBlock("label." + name)
	b.labels[name] = bl
	return bl
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		for t := b.targets; t != nil; t = t.outer {
			if s.Label == nil || t.label == s.Label.Name {
				b.jumpTo(t.brk)
				return
			}
		}
	case token.CONTINUE:
		for t := b.targets; t != nil; t = t.outer {
			if t.cont != nil && (s.Label == nil || t.label == s.Label.Name) {
				b.jumpTo(t.cont)
				return
			}
		}
	case token.GOTO:
		b.jumpTo(b.labelBlock(s.Label.Name))
		return
	case token.FALLTHROUGH:
		if b.targets != nil && b.targets.fallthroughTo != nil {
			b.jumpTo(b.targets.fallthroughTo)
			return
		}
	}
	// Unresolvable branch (would not compile): treat as terminating
	// so the builder stays total.
	b.cur = nil
}

// Dump renders the graph topology as one line per block:
//
//	b2 if.then n=3 -> b5 b6
//
// where n is the node count. The output is deterministic and is what
// the golden tests pin.
func (c *CFG) Dump() string {
	var sb strings.Builder
	for _, bl := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s", bl.Index, bl.Kind)
		if len(bl.Nodes) > 0 {
			fmt.Fprintf(&sb, " n=%d", len(bl.Nodes))
		}
		if bl.Cond != nil {
			sb.WriteString(" cond")
		}
		if len(bl.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range bl.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
