package telemetry

import (
	"strconv"
	"testing"
	"time"
)

// TestRecordZeroAlloc pins the histogram record path — and every
// other instrument write — at zero allocations per operation, both
// live and through the nil no-op path. This is the same discipline as
// the kernel's alloc gates: telemetry must be free to leave on.
func TestRecordZeroAlloc(t *testing.T) {
	reg := New()
	h := reg.Histogram("pbs.dyn_latency")
	c := reg.Counter("net.msgs")
	g := reg.Gauge("pbs.queue_depth")
	o := reg.Occupancy("maui.occupancy")

	var nilH *Histogram
	var nilC *Counter
	var nilG *Gauge
	var nilO *Occupancy

	cases := []struct {
		name string
		fn   func()
	}{
		{"hist.Record", func() { h.Record(3 * time.Millisecond) }},
		{"counter.Add", func() { c.Add(1) }},
		{"gauge.Set", func() { g.Set(4) }},
		{"gauge.Add", func() { g.Add(-1) }},
		{"occupancy.OnFor", func() { o.OnFor(time.Millisecond) }},
		{"nil hist.Record", func() { nilH.Record(3 * time.Millisecond) }},
		{"nil counter.Add", func() { nilC.Add(1) }},
		{"nil gauge.Set", func() { nilG.Set(4) }},
		{"nil occupancy.OnFor", func() { nilO.OnFor(time.Millisecond) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestScrapeCostDoesNotGrowWithInstruments: a window's rows are sized
// once and an instrument's previous state is found without building a
// key, so a window of 64 counters allocates no more than one of 8.
func TestScrapeCostDoesNotGrowWithInstruments(t *testing.T) {
	window := func(n int) float64 {
		reg := New()
		for i := 0; i < n; i++ {
			reg.Counter("c" + strconv.Itoa(i)).Add(1)
		}
		clk := &manualClock{}
		s := NewScraper(reg, clk, time.Second)
		s.ScrapeNow() // the first window creates each instrument's state
		return testing.AllocsPerRun(100, func() {
			clk.now += time.Second
			s.ScrapeNow()
		})
	}
	if few, many := window(8), window(64); many > few {
		t.Errorf("a window of 64 counters allocates %v objects, one of 8 %v", many, few)
	}
}
