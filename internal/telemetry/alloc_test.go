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

// A full scrape cycle over a 9-instrument registry — 4 counters, 2
// gauges, 2 histograms and 1 occupancy, about what one instrumented
// subsystem registers — is a fresh scraper, the scrape that sets each
// instrument's baseline, then 4 windows. Its allocation count is a
// constant, held at what it measures.
func TestScrapeCycleAllocs(t *testing.T) {
	clk := &manualClock{}
	reg := New()
	ctrs := []*Counter{reg.Counter("bench.submits"), reg.Counter("bench.msgs"), reg.Counter("bench.bytes"), reg.Counter("bench.done")}
	gauges := []*Gauge{reg.Gauge("bench.queue_depth"), reg.Gauge("bench.inflight")}
	hists := []*Histogram{reg.Histogram("bench.latency"), reg.Histogram("bench.cycle")}
	occ := reg.Occupancy("bench.busy")
	allocs := testing.AllocsPerRun(100, func() {
		s := NewScraper(reg, clk, time.Second)
		s.ScrapeNow()
		for w := 0; w < 4; w++ {
			for _, c := range ctrs {
				c.Add(3)
			}
			for _, g := range gauges {
				g.Set(float64(w))
			}
			for _, h := range hists {
				h.Record(time.Duration(w+1) * time.Millisecond)
			}
			occ.OnFor(100 * time.Millisecond)
			clk.now += time.Second
			s.ScrapeNow()
		}
	})
	if allocs > 45 && !raceDetectorOn {
		t.Errorf("scrape cycle: %v allocs, want at most 45", allocs)
	}
}
