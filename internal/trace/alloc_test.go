package trace

import (
	"testing"
	"time"
)

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

// TestEventLogChunksKeepOrderAndNeverCopy: the log grows by chunks, so
// Events returns every event in publish order across chunk edges, and
// once the first chunk is full an append never moves what is recorded
// (the cost the doubling slice paid in copies and peak memory).
func TestEventLogChunksKeepOrderAndNeverCopy(t *testing.T) {
	tr := New()
	const n = 3*chunkEvents + 17
	var first *Event
	for i := 0; i < n; i++ {
		tr.InstantAt("track", "mark", time.Duration(i))
		if i == chunkEvents {
			first = &tr.chunks[0][0]
		}
	}
	if first != &tr.chunks[0][0] {
		t.Error("the first chunk moved after it filled")
	}
	evs := tr.Events()
	if len(evs) != n {
		t.Fatalf("Events returned %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.Start != time.Duration(i) {
			t.Fatalf("event %d carries start %v: out of publish order", i, e.Start)
		}
	}
	if len(tr.chunks) != 4 {
		t.Errorf("%d events in %d chunks, want 4", n, len(tr.chunks))
	}
}
