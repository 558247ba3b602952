// Package spans exercises the spanbalance analyzer: every span opened
// in a function (Tracer.Start, Span.Child) must reach an End in that
// scope or be handed off.
package spans

import "trace"

var tr = trace.New()

// Balanced: the canonical defer.
func deferEnd() {
	sp := tr.Start("t", "ok")
	defer sp.End()
	sp.Annotate("k", "v")
}

// Balanced: a direct End later in the scope, with benign receiver
// uses (Annotate, ID) in between.
func directEnd() uint64 {
	sp := tr.Start("t", "ok")
	sp.Annotate("k", "v")
	sp.End()
	return sp.ID()
}

// Balanced: parent deferred, child ended directly.
func childEnd() {
	sp := tr.Start("t", "parent")
	defer sp.End()
	c := sp.Child("step")
	c.Link(7)
	c.End()
}

// The span is annotated but never ended and never handed off.
func leak() {
	sp := tr.Start("t", "leak") // want `span "sp" is never ended`
	sp.Annotate("k", "v")
}

// The parent is balanced; the child leaks even though its ID is read.
func childLeak() {
	sp := tr.Start("t", "parent")
	defer sp.End()
	c := sp.Child("step") // want `span "c" is never ended`
	_ = c.ID()
}

// A result no one binds can never be ended.
func discarded() {
	tr.Start("t", "drop") // want `span result discarded`
}

// Assigning to the blank identifier discards it just as surely.
func discardedBlank() {
	_ = tr.Start("t", "drop") // want `span result discarded`
}

// The conditional-creation idiom: a nil span's methods are no-ops, so
// assign under a guard and End unconditionally.
func condCreate(on bool) {
	var sp *trace.Span
	if on {
		sp = tr.Start("t", "cond")
	}
	defer sp.End()
}

// Same idiom without the End: still a leak.
func condLeak(on bool) {
	var sp *trace.Span
	if on {
		sp = tr.Start("t", "leak") // want `span "sp" is never ended`
	}
	sp.Annotate("k", "v")
}

// Hand-off: returning the span transfers ownership to the caller.
func handOff() *trace.Span {
	sp := tr.Start("t", "handoff")
	sp.Annotate("k", "v")
	return sp
}

// Hand-off: passing the span to another function.
func passed() {
	sp := tr.Start("t", "passed")
	closer(sp)
}

// closer ends a span it did not open: parameters are not creations.
func closer(sp *trace.Span) { sp.End() }

// Hand-off: storing the span through a pointer; the slot's owner is
// responsible for the End.
func stored(dst **trace.Span) {
	*dst = tr.Start("t", "stored")
}

// Hand-off: a closure capturing the span owns its End.
func captured(run func(func())) {
	sp := tr.Start("t", "captured")
	run(func() { sp.End() })
}

// Function literals are independent scopes: the literal's own span is
// audited in the literal.
func literalScope() {
	f := func() {
		sp := tr.Start("t", "lit") // want `span "sp" is never ended`
		sp.Annotate("k", "v")
	}
	f()
}

// A deliberate open span with a documented protocol is suppressed.
func protocol() {
	//lint:ignore spanbalance teardown closes this epoch span out of band
	sp := tr.Start("t", "epoch")
	sp.Annotate("k", "v")
}

// AsyncSpanLinkAt records closed intervals; no End required, nothing tracked.
func closedInterval() {
	tr.AsyncSpanLinkAt("t", "interval", 0, 0, 10)
}
