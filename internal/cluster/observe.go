package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Observers names the observers to open for a run. Any combination
// is valid with any experiment: they all hang off Params.
type Observers struct {
	Trace     bool // span tracer -> "span" capture lines
	Telemetry bool // instrument registry + scraper -> "scrape" lines
	Audit     bool // flight recorder + digest ticker -> "audit" lines
}

// ParseObservers parses a comma-separated observer list
// ("trace,audit"); the empty string is the empty set.
func ParseObservers(s string) (Observers, error) {
	var o Observers
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "":
		case "trace":
			o.Trace = true
		case "telemetry":
			o.Telemetry = true
		case "audit":
			o.Audit = true
		default:
			return Observers{}, fmt.Errorf("cluster: unknown observer %q (want trace, telemetry, audit)", name)
		}
	}
	return o, nil
}

// Session is the live observers of one simulation: the sinks handed
// to Params plus the scraper and digest ticker that sample them on its
// virtual clock. Open one per simulation; a sink stamps what it records
// with the one clock it is bound to. Observers outside the set are nil,
// and every method tolerates that.
type Session struct {
	Tracer   *trace.Tracer
	Registry *telemetry.Registry
	Recorder *audit.Recorder

	scr  *telemetry.Scraper
	tick *audit.Ticker
}

// Open creates fresh observers for one run.
func (o Observers) Open() *Session {
	s := &Session{}
	if o.Trace {
		s.Tracer = trace.New()
	}
	if o.Telemetry {
		s.Registry = telemetry.New()
	}
	if o.Audit {
		s.Recorder = audit.New(audit.DefaultCapacity)
	}
	return s
}

// Attach installs the session's observers on a parameter set; build
// the cluster from it afterwards. An observer the session does not
// hold leaves the field alone, so one the caller put on p stays
// attached (it is the caller's to read; the session captures only
// its own).
func (s *Session) Attach(p *Params) {
	if s.Tracer != nil {
		p.Tracer = s.Tracer
	}
	if s.Registry != nil {
		p.Telemetry = s.Registry
	}
	if s.Recorder != nil {
		p.Audit = s.Recorder
	}
}

// Shares reports whether p carries an observer that a session opened
// from o leaves in place (see Attach), so that every run built from p
// records into that one observer. An observer takes no lock
// (DESIGN.md §7): runs that share one must go one at a time.
func (o Observers) Shares(p Params) bool {
	return p.Tracer != nil && !o.Trace || p.Telemetry != nil && !o.Telemetry || p.Audit != nil && !o.Audit
}

// ObserveInterval is the virtual-time cadence of scrape windows and
// digest rounds.
const ObserveInterval = 5 * time.Second

// Start arms the scraper and the digest ticker on the run's clock,
// both every ObserveInterval so digest rounds line up with scrape
// windows. Call it inside the simulation.
func (s *Session) Start(clk telemetry.Clock) {
	if s.Registry != nil {
		s.scr = telemetry.NewScraper(s.Registry, clk, ObserveInterval)
		s.scr.Start()
	}
	s.tick = audit.NewTicker(s.Recorder, clk, ObserveInterval)
	s.tick.Start()
}

// Stop takes the final partial scrape window and the final digest
// capture. Call it inside the simulation once the run has drained.
func (s *Session) Stop() {
	s.scr.Stop()
	s.tick.Stop()
}

// File snapshots what the observers hold.
func (s *Session) File() capture.File {
	return capture.File{Spans: s.Tracer.Events(), Audit: s.Recorder.Events(), Windows: s.scr.Windows()}
}
