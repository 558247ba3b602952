package trace

import (
	"reflect"
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
		tr.AsyncSpanLinkAt("track", "late", 1, 0, 0, "k", "v")
		tr.InstantAt("track", "mark", 0, "k", "v")
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

// TestEnabledSpanAllocatesNothing: spans, annotations and first links
// are cut from the tracer's chunks and a span carries the event it
// publishes, so an enabled span, a child, an after-the-fact span and an
// instant each allocate nothing, amortized.
func TestEnabledSpanAllocatesNothing(t *testing.T) {
	tr := New()
	for i := 0; i < chunkEvents; i++ { // fill the first, doubling chunk
		tr.InstantAt("track", "warm", 0)
	}
	root := tr.Start("maui", "cycle")
	for _, c := range []struct {
		name string
		emit func()
	}{
		{"Start+Annotate+Link+End", func() {
			sp := tr.Start("pbs/server", "submit", "job", "J1")
			sp.Annotate("req", "7")
			sp.Link(3)
			sp.End()
		}},
		{"Child", func() { root.Child("place", "job", "J1").End() }},
		{"AsyncSpanLinkAt", func() {
			tr.AsyncSpanLinkAt("netsim", "msg.pbs", 3, 0, time.Millisecond, "from", "a", "to", "b")
		}},
		{"InstantAt", func() { tr.InstantAt("pbs/server", "acct.Q", 0, "job", "J1", "detail", "d") }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.emit); allocs != 0 {
			t.Errorf("enabled %s: %v allocs/op, want 0", c.name, allocs)
		}
	}
	root.End()
}

// TestSpansCutFromOneChunkStayApart: two spans cut side by side from one
// chunk. Annotating, linking and ending one leaves the other's published
// event as it was; an ended span still answers ID, and ending it again
// publishes nothing. An unbound tracer stamps 0 everywhere, and so does
// one whose clock SetClock(nil) took away.
func TestSpansCutFromOneChunkStayApart(t *testing.T) {
	tr := New()
	a := tr.Start("t", "a", "k", "1")
	b := a.Child("b", "k", "2")
	if n := len(tr.spans); &tr.spans[n-2] != a || &tr.spans[n-1] != b {
		t.Fatal("the two spans are not chunk neighbours")
	}
	b.Link(9)
	b.End()
	pub := tr.Events()[0]
	want := pub
	want.Args = append([]KV(nil), pub.Args...)
	want.Links = append([]uint64(nil), pub.Links...)

	a.Annotate("extra", "x")
	a.Link(3)
	a.End()
	a.End()
	b.End()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events published, want 2 (ending twice publishes once)", len(evs))
	}
	if !reflect.DeepEqual(evs[0], want) {
		t.Errorf("the neighbour's published event moved:\n got %+v\nwant %+v", evs[0], want)
	}
	got := evs[1]
	if got.Name != "a" || got.ID != a.ID() || got.Parent != 0 || len(got.Args) != 2 || len(got.Links) != 1 || got.Links[0] != 3 {
		t.Errorf("annotated span published %+v", got)
	}
	if a.ID() == 0 || b.ID() == 0 || a.ID() == b.ID() || evs[0].Parent != a.ID() {
		t.Errorf("after End: a.ID() = %d, b.ID() = %d, b's parent %d", a.ID(), b.ID(), evs[0].Parent)
	}

	tr.SetClock(func() time.Duration { return time.Second })
	tr.SetClock(nil)
	c := tr.Start("t", "c")
	c.Child("d").End()
	c.End()
	tr.AsyncSpanLinkAt("t", "e", 0, 0, 0)
	for _, e := range tr.Events() {
		if e.Start != 0 || e.Dur != 0 {
			t.Errorf("unbound tracer stamped %s at %v for %v, want 0 and 0", e.Name, e.Start, e.Dur)
		}
	}
}

// TestAnnotateLeavesChunkNeighbourAlone: two spans whose annotations and
// links sit next to each other in one chunk; growing the first one's
// reallocates it and leaves the second one's as they were.
func TestAnnotateLeavesChunkNeighbourAlone(t *testing.T) {
	tr := New()
	a := tr.Start("t", "a", "k", "1")
	b := tr.Start("t", "b", "k", "2")
	a.Link(1)
	b.Link(2)
	if n := len(tr.kvs); &tr.kvs[n-2] != &a.ev.Args[0] || &tr.kvs[n-1] != &b.ev.Args[0] {
		t.Fatal("the two spans' annotations are not chunk neighbours")
	}
	if n := len(tr.links); &tr.links[n-2] != &a.ev.Links[0] || &tr.links[n-1] != &b.ev.Links[0] {
		t.Fatal("the two spans' links are not chunk neighbours")
	}
	a.Annotate("extra", "x")
	a.Link(3)
	a.End()
	b.End()
	evs := tr.Events()
	if got := evs[1].Args; len(got) != 1 || got[0] != (KV{"k", "2"}) {
		t.Errorf("neighbour's args = %v, want [{k 2}]", got)
	}
	if got := evs[1].Links; len(got) != 1 || got[0] != 2 {
		t.Errorf("neighbour's links = %v, want [2]", got)
	}
	if got := evs[0].Args; len(got) != 2 || got[0] != (KV{"k", "1"}) || got[1] != (KV{"extra", "x"}) {
		t.Errorf("annotated span's args = %v", got)
	}
	if got := evs[0].Links; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("annotated span's links = %v, want [1 3]", got)
	}
	// a's grown annotations were cut right after b's: a reader appending
	// to b's copy reallocates too.
	grown := append(evs[1].Args, KV{"reader", "y"})
	if got := tr.Events()[0].Args; got[0] != (KV{"k", "1"}) {
		t.Errorf("appending %v to the neighbour's args overwrote the annotated span's: %v", grown[1], got)
	}
}
