package telemetry

import (
	"sort"
	"time"
)

// Kind classifies an instrument.
type Kind string

// Instrument kinds, in the order scrape rows sort within a name.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
	KindOccupancy Kind = "occupancy"
)

// Counter is a monotonically increasing integer instrument (request
// counts, dispatched events, bytes moved). A nil *Counter is a no-op.
type Counter struct {
	v int64
}

// Add increases the counter by n (negative n is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v += n
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time float instrument (queue depth, in-flight
// bytes). A nil *Gauge is a no-op.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add shifts the gauge by delta (use ±1 for in-flight tracking).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Value reports the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Occupancy accumulates busy time for a resource (a scheduler, a
// link, an accelerator class). Callers add each busy interval with
// OnFor; the scraper divides busy-time deltas by the window to get a
// per-window occupancy ratio, and Ratio gives the run-wide one. Busy
// time accrues when the interval *completes*, so a window's ratio can
// exceed 1 when a long interval lands in it; cumulative ratios are
// exact. A nil *Occupancy is a no-op.
type Occupancy struct {
	busy time.Duration
}

// OnFor records that the resource was busy for d (negative d is
// ignored).
func (o *Occupancy) OnFor(d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.busy += d
}

// Busy reports the accumulated busy time.
func (o *Occupancy) Busy() time.Duration {
	if o == nil {
		return 0
	}
	return o.busy
}

// Ratio reports busy time as a fraction of elapsed (zero when elapsed
// is not positive).
func (o *Occupancy) Ratio(elapsed time.Duration) float64 {
	if o == nil || elapsed <= 0 {
		return 0
	}
	return float64(o.Busy()) / float64(elapsed)
}

// Registry is a named set of instruments. Each accessor returns the
// existing instrument of that name or creates it; instrument handles
// are resolved once at component construction and then used on the hot
// path. Names are compile-time constants, so cardinality stays bounded
// and scrape output stays diffable across runs. Like the tracer, a
// registry records one simulation and takes no lock.
//
// A nil *Registry hands out nil instruments, whose methods are all
// no-ops — components instrument unconditionally, exactly like the
// nil-tracer pattern.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	occupancy  map[string]*Occupancy
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		occupancy:  make(map[string]*Occupancy),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Occupancy returns the named occupancy accumulator, creating it on
// first use.
func (r *Registry) Occupancy(name string) *Occupancy {
	if r == nil {
		return nil
	}
	o := r.occupancy[name]
	if o == nil {
		o = &Occupancy{}
		r.occupancy[name] = o
	}
	return o
}

// instrumentRef is one (name, kind) entry of the sorted enumeration.
type instrumentRef struct {
	name string
	kind Kind
	ctr  *Counter
	gag  *Gauge
	hist *Histogram
	occ  *Occupancy
}

// instruments returns every registered instrument sorted by name then
// kind — the deterministic enumeration scrapes and exports share.
func (r *Registry) instruments() []instrumentRef {
	if r == nil {
		return nil
	}
	refs := make([]instrumentRef, 0,
		len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.occupancy))
	for name, c := range r.counters {
		refs = append(refs, instrumentRef{name: name, kind: KindCounter, ctr: c})
	}
	for name, g := range r.gauges {
		refs = append(refs, instrumentRef{name: name, kind: KindGauge, gag: g})
	}
	for name, h := range r.histograms {
		refs = append(refs, instrumentRef{name: name, kind: KindHistogram, hist: h})
	}
	for name, o := range r.occupancy {
		refs = append(refs, instrumentRef{name: name, kind: KindOccupancy, occ: o})
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].name != refs[j].name {
			return refs[i].name < refs[j].name
		}
		return refs[i].kind < refs[j].kind
	})
	return refs
}
