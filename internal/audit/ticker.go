package audit

import "time"

// Clock abstracts the virtual clock the digest ticker runs on. It is
// structurally identical to the telemetry scrape clock, so a
// *sim.Simulation satisfies it directly (this package cannot import
// the kernel: the kernel imports it).
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// After schedules fn to run once d has elapsed on the clock.
	After(d time.Duration, fn func())
}

// DefaultMaxCaptures caps the digest timer chain, mirroring the
// telemetry scraper: a forgotten Stop must not keep the simulation's
// event queue alive forever.
const DefaultMaxCaptures = 4096

// Ticker captures digests on a fixed virtual-time cadence — the same
// cadence the telemetry scraper uses, so digest rounds line up with
// scrape windows in a combined timeline.
type Ticker struct {
	// MaxCaptures bounds the number of periodic captures; beyond it
	// the timer chain self-disarms (Stop still takes a final
	// capture). Set before Start; defaults to DefaultMaxCaptures.
	MaxCaptures int

	rec      *Recorder
	clock    Clock
	interval time.Duration
	stopped  bool
	rounds   int
}

// NewTicker returns a digest ticker for rec driven by clock; call
// Start to arm it. A non-positive interval disables periodic
// captures (Stop still captures once).
func NewTicker(rec *Recorder, clock Clock, interval time.Duration) *Ticker {
	return &Ticker{MaxCaptures: DefaultMaxCaptures, rec: rec, clock: clock, interval: interval}
}

// Start arms the first capture one interval from now.
func (t *Ticker) Start() {
	if t == nil || t.rec == nil || t.clock == nil || t.interval <= 0 {
		return
	}
	t.clock.After(t.interval, t.tick)
}

func (t *Ticker) tick() {
	if t.stopped || t.rounds >= t.MaxCaptures {
		return
	}
	t.rounds++
	t.rec.CaptureDigests()
	if t.rounds < t.MaxCaptures {
		t.clock.After(t.interval, t.tick)
	}
}

// Stop disarms the ticker and takes one final capture, so the end
// state is always digested even when the run ends mid-interval.
func (t *Ticker) Stop() {
	if t == nil || t.rec == nil {
		return
	}
	if t.stopped {
		return
	}
	t.stopped = true
	t.rec.CaptureDigests()
}
