package telemetry

import (
	"time"
)

// Clock is the slice of the simulation kernel the scraper needs: the
// virtual clock and one-shot virtual timers. *sim.Simulation satisfies
// it; tests substitute a manual clock. Telemetry deliberately does not
// import the kernel, so the dependency points one way (sim → telemetry
// for the kernel's own instruments).
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func())
}

// Row is one instrument's state in one scrape window.
//
// Total is the cumulative value at the window's end; Delta is the
// change within the window. Their meaning follows the kind:
//
//   - counter:   Total = count so far, Delta = increments this window
//   - gauge:     Total = current value, Delta = change this window
//   - histogram: Total = observations so far, Delta = observations
//     this window; P50/P99/P999/Mean/Max describe only this window's
//     observations
//   - occupancy: Total = cumulative busy seconds, Delta = busy time
//     this window divided by the window length (the occupancy ratio)
type Row struct {
	Name  string  `json:"name"`
	Kind  Kind    `json:"kind"`
	Total float64 `json:"total"`
	Delta float64 `json:"delta"`

	P50  time.Duration `json:"p50,omitempty"`
	P99  time.Duration `json:"p99,omitempty"`
	P999 time.Duration `json:"p999,omitempty"`
	Mean time.Duration `json:"mean,omitempty"`
	Max  time.Duration `json:"max,omitempty"`
}

// Window is one scrape: every instrument's Row over [Start, End) of
// virtual time. Rows are sorted by (name, kind), so two runs of the
// same scenario produce byte-identical window series.
type Window struct {
	Index int           `json:"window"`
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	Rows  []Row         `json:"rows"`
}

// Scraper samples a Registry on a fixed virtual-time interval,
// turning cumulative instrument state into a windowed time-series.
// Create one with NewScraper, call Start once the simulation's actors
// are set up, and Stop before reading Windows — Stop takes a final
// partial window and disarms the timer. MaxWindows bounds the series
// so a forgotten scraper cannot keep an otherwise-idle simulation
// alive forever (each re-arm is a pending event, which would defeat
// the kernel's deadlock detection).
type Scraper struct {
	reg      *Registry
	clk      Clock
	interval time.Duration

	// MaxWindows caps how many periodic windows are taken before the
	// scraper disarms itself (Stop can still add a final partial
	// window). Zero or negative means the DefaultMaxWindows cap.
	MaxWindows int

	windows []Window
	prev    map[string]*prevState // keyed by name+"\x00"+kind
	start   time.Duration         // current window start
	armed   bool
	stopped bool
	scratch Histogram // window-delta workspace, reused across scrapes
}

// prevState is the cumulative snapshot a window is diffed against.
type prevState struct {
	num  float64    // counters, gauges, occupancy busy-seconds
	hist *Histogram // histograms
}

// DefaultMaxWindows bounds a scraper that is never stopped: with the
// default cap the series stays small enough to hold in memory and the
// re-armed timer chain always terminates.
const DefaultMaxWindows = 4096

// NewScraper returns a scraper over reg driven by clk, taking one
// window per interval. The interval must be positive.
func NewScraper(reg *Registry, clk Clock, interval time.Duration) *Scraper {
	if interval <= 0 {
		interval = time.Second
	}
	return &Scraper{
		reg:      reg,
		clk:      clk,
		interval: interval,
		prev:     make(map[string]*prevState),
	}
}

// Start arms the periodic scrape. The first window closes one
// interval from now; instruments created after Start are picked up on
// the window in which they first appear.
func (s *Scraper) Start() {
	if s == nil || s.armed || s.stopped {
		return
	}
	s.armed = true
	s.start = s.clk.Now()
	s.clk.After(s.interval, s.tick)
}

// tick is the periodic scrape callback. It runs on the simulation's
// controller (sim.After semantics), so it never races actor code and
// must not block.
func (s *Scraper) tick() {
	if s.stopped {
		return
	}
	s.scrapeWindow()
	max := s.MaxWindows
	if max <= 0 {
		max = DefaultMaxWindows
	}
	if len(s.windows) >= max {
		s.stopped = true
		return
	}
	s.clk.After(s.interval, s.tick)
}

// Stop disarms the scraper and, when virtual time has advanced past
// the last window edge, takes one final partial window so the tail of
// the run is not lost. Windows taken so far stay available.
func (s *Scraper) Stop() {
	if s == nil || s.stopped {
		return
	}
	s.stopped = true
	if s.armed && s.clk.Now() > s.start {
		s.scrapeWindow()
	}
}

// ScrapeNow takes one window immediately, independent of the periodic
// timer — the manual-drive entry point for tests and benchmarks.
func (s *Scraper) ScrapeNow() {
	if s == nil || s.stopped {
		return
	}
	s.scrapeWindow()
}

// Windows returns the scrape series taken so far.
func (s *Scraper) Windows() []Window {
	if s == nil {
		return nil
	}
	return s.windows
}

func (s *Scraper) scrapeWindow() {
	now := s.clk.Now()
	w := Window{Index: len(s.windows), Start: s.start, End: now}
	dur := now - s.start
	for _, ref := range s.reg.instruments() {
		key := ref.name + "\x00" + string(ref.kind)
		ps := s.prev[key]
		if ps == nil {
			ps = &prevState{}
			if ref.kind == KindHistogram {
				ps.hist = NewHistogram()
			}
			s.prev[key] = ps
		}
		row := Row{Name: ref.name, Kind: ref.kind}
		switch ref.kind {
		case KindCounter:
			cur := float64(ref.ctr.Value())
			row.Total, row.Delta = cur, cur-ps.num
			ps.num = cur
		case KindGauge:
			cur := ref.gag.Value()
			row.Total, row.Delta = cur, cur-ps.num
			ps.num = cur
		case KindOccupancy:
			cur := ref.occ.Busy().Seconds()
			row.Total = cur
			if dur > 0 {
				row.Delta = (cur - ps.num) / dur.Seconds()
			}
			ps.num = cur
		case KindHistogram:
			d := &s.scratch
			ref.hist.windowInto(ps.hist, d)
			row.Total = float64(ps.hist.count) // cumulative after snapshot
			row.Delta = float64(d.count)
			if d.count > 0 {
				row.P50 = quantileLocked(&d.counts, d.count, 0.50)
				row.P99 = quantileLocked(&d.counts, d.count, 0.99)
				row.P999 = quantileLocked(&d.counts, d.count, 0.999)
				row.Mean = time.Duration(d.sum / d.count)
				row.Max = time.Duration(d.max)
			}
		}
		w.Rows = append(w.Rows, row)
	}
	s.windows = append(s.windows, w)
	s.start = now
}
