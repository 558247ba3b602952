package trace

import "testing"

// TestNilTracerZeroAlloc pins the disabled tracer's span emission at
// zero allocations per operation. Every layer instruments its hot
// paths unconditionally through nil-safe methods, so the no-op
// exporter must stay allocation-free: the nil-receiver early returns
// let escape analysis keep the variadic annotation slices on the
// caller's stack.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("track", "name", "k", "v")
		ch := sp.Child("child", "k2", "v2")
		ch.Annotate("a", "b")
		ch.Link(sp.ID())
		ch.End()
		sp.End()
		tr.SpanAt("track", "late", 0, 0, "k", "v")
		tr.Instant("track", "mark", "k", "v")
	})
	if allocs != 0 {
		t.Fatalf("nil tracer emission: %v allocs/op, want 0", allocs)
	}
}
