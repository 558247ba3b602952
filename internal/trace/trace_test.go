package trace

import (
	"testing"
	"time"
)

// manualClock is a settable virtual clock for deterministic tests.
type manualClock struct{ now time.Duration }

func (c *manualClock) advance(d time.Duration) { c.now += d }
func (c *manualClock) read() time.Duration     { return c.now }

func TestSpanNesting(t *testing.T) {
	tr := New()
	clk := &manualClock{}
	tr.SetClock(clk.read)

	root := tr.Start("pbs/server", "submit", "job", "J1")
	clk.advance(10 * time.Millisecond)
	child := root.Child("alloc")
	clk.advance(5 * time.Millisecond)
	grand := child.Child("place", "hosts", "cn0")
	clk.advance(1 * time.Millisecond)
	grand.End()
	child.End()
	clk.advance(4 * time.Millisecond)
	root.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Events publish at End, innermost first.
	g, c, r := evs[0], evs[1], evs[2]
	if g.Name != "place" || c.Name != "alloc" || r.Name != "submit" {
		t.Fatalf("unexpected order: %s, %s, %s", g.Name, c.Name, r.Name)
	}
	if r.Parent != 0 {
		t.Errorf("root has parent %d", r.Parent)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent = %d, want %d", c.Parent, r.ID)
	}
	if g.Parent != c.ID {
		t.Errorf("grandchild parent = %d, want %d", g.Parent, c.ID)
	}
	if r.Start != 0 || r.Dur != 20*time.Millisecond {
		t.Errorf("root interval = %v+%v", r.Start, r.Dur)
	}
	if c.Start != 10*time.Millisecond || c.Dur != 6*time.Millisecond {
		t.Errorf("child interval = %v+%v", c.Start, c.Dur)
	}
	if g.Start != 15*time.Millisecond || g.Dur != 1*time.Millisecond {
		t.Errorf("grandchild interval = %v+%v", g.Start, g.Dur)
	}
	if len(r.Args) != 1 || r.Args[0] != (KV{"job", "J1"}) {
		t.Errorf("root args = %v", r.Args)
	}
}

func TestSpanEndTwice(t *testing.T) {
	tr := New()
	sp := tr.Start("x", "y")
	sp.End()
	sp.End()
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("double End published %d events", n)
	}
}

func TestSpanSurvivesClockRebind(t *testing.T) {
	// Multi-trial experiments reuse one tracer across simulations:
	// SetClock rebinds to a fresh clock starting at zero. A span still
	// open from the previous trial must not report a negative duration.
	tr := New()
	old := &manualClock{now: 100 * time.Millisecond}
	tr.SetClock(old.read)
	sp := tr.Start("maui", "fetch")
	fresh := &manualClock{}
	tr.SetClock(fresh.read)
	old.advance(3 * time.Millisecond)
	sp.End()
	ev := tr.Events()[0]
	if ev.Dur != 3*time.Millisecond {
		t.Fatalf("dur = %v, want 3ms (span must keep its own clock)", ev.Dur)
	}
}

func TestInstantAndAt(t *testing.T) {
	tr := New()
	clk := &manualClock{now: 7 * time.Millisecond}
	tr.SetClock(clk.read)
	tr.InstantAt("pbs/server", "acct.Q", clk.now, "job", "J1")
	tr.InstantAt("pbs/server", "acct.S", 9*time.Millisecond)
	tr.AsyncSpanLinkAt("netsim", "msg.pbs", 0, 2*time.Millisecond, 1*time.Millisecond)
	evs := tr.Events()
	if evs[0].Kind != KindInstant || evs[0].Start != 7*time.Millisecond || len(evs[0].Args) != 1 || evs[0].Args[0] != (KV{"job", "J1"}) {
		t.Errorf("instant = %+v", evs[0])
	}
	if evs[1].Start != 9*time.Millisecond {
		t.Errorf("instantAt = %+v", evs[1])
	}
	if evs[2].Kind != KindSpan || evs[2].Dur != time.Millisecond {
		t.Errorf("spanAt = %+v", evs[2])
	}
}

func TestNilTracerNoop(t *testing.T) {
	var tr *Tracer
	// Every method must be callable and free of allocation.
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("x", "y", "k", "v")
		sp.Annotate("a", "b")
		sp.Child("z").End()
		sp.End()
		tr.InstantAt("x", "i", 0)
		tr.AsyncSpanLinkAt("x", "s", 1, 0, 0)
		tr.SetClock(nil)
		_ = tr.Events()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %.0f per op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan guards the no-op fast path: instrumented hot
// paths run with a nil tracer when tracing is off, so the whole
// Start/Child/End sequence must stay allocation-free and cheap.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("pbs/server", "submit", "job", "J1")
		sp.Child("alloc").End()
		sp.End()
	}
}

// BenchmarkEnabledSpan tracks the cost when tracing is on.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	clk := &manualClock{}
	tr.SetClock(clk.read)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("pbs/server", "submit", "job", "J1")
		sp.Child("alloc").End()
		sp.End()
	}
}
