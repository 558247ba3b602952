package workload

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/sim"
)

// Source is an open-loop submission stream: the interface between a
// workload (synthetic arrival process or recorded trace) and the
// resident service instance (internal/service). Next returns the next
// entry — its At field is the absolute virtual submission offset from
// stream start — and false once the stream is exhausted. Sources are
// pull-based and single-consumer: the service's admission pipeline is
// the only caller.
type Source interface {
	Next() (TraceEntry, bool)
}

// ArrivalProcess selects how interarrival gaps are generated.
type ArrivalProcess string

const (
	// ArrivalPoisson draws exponential gaps: the memoryless open-loop
	// load model of the paper's Figure 8 axis.
	ArrivalPoisson ArrivalProcess = "poisson"
	// ArrivalUniform draws gaps uniformly in [0, 2/rate): the same
	// mean rate with a bounded burst factor.
	ArrivalUniform ArrivalProcess = "uniform"
	// ArrivalBurst emits back-to-back groups of BurstLen jobs at
	// BurstFactor times the mean rate, idling between groups so the
	// long-run rate still matches Rate.
	ArrivalBurst ArrivalProcess = "burst"
)

// ParseArrivalProcess maps a CLI flag value to an ArrivalProcess.
func ParseArrivalProcess(s string) (ArrivalProcess, error) {
	switch s {
	case "", string(ArrivalPoisson):
		return ArrivalPoisson, nil
	case string(ArrivalUniform):
		return ArrivalUniform, nil
	case string(ArrivalBurst):
		return ArrivalBurst, nil
	}
	return "", fmt.Errorf("workload: unknown arrival process %q (want poisson, uniform, or burst)", s)
}

// ArrivalConfig parameterizes an open-loop arrival stream.
type ArrivalConfig struct {
	Process ArrivalProcess // ArrivalPoisson when empty
	// Rate is the mean submission rate in jobs per virtual second;
	// tunable up to millions of jobs per hour (Rate = jobs/3600).
	Rate float64
	Seed uint64
	// Classes is the job-shape mix (ServeClasses() when nil). Shapes
	// come from a seeded stream independent of the gap stream, so
	// changing Rate or Process never reshuffles which jobs arrive.
	Classes []Class
	// MaxJobs caps how many entries the stream yields (0 = unbounded:
	// the consumer bounds the run by virtual horizon instead).
	MaxJobs int
	// Horizon stops the stream at this virtual offset (0 = none).
	Horizon time.Duration
	// Burst shape for ArrivalBurst (defaults: 16 jobs at 8x rate).
	BurstLen    int
	BurstFactor float64
}

// ServeClasses is the default job mix of the online service mode:
// mostly small batch jobs, with a dynamic-request class that keeps
// the pbs.dyn_latency SLO instruments carrying signal.
func ServeClasses() []Class {
	return []Class{
		{Name: "serial", Weight: 5, Nodes: 1, PPN: 1, MinRun: 200 * time.Millisecond, MaxRun: 1200 * time.Millisecond},
		{Name: "node", Weight: 2, Nodes: 1, PPN: 8, MinRun: 300 * time.Millisecond, MaxRun: 1500 * time.Millisecond},
		{Name: "dyn", Weight: 1, Nodes: 1, PPN: 2, MinRun: 400 * time.Millisecond, MaxRun: 1600 * time.Millisecond,
			DynACs: 1, DynHold: 200 * time.Millisecond},
	}
}

// Arrivals is a deterministic open-loop arrival stream implementing
// Source. Two independent RNG streams are split from the seed: job
// shapes (class pick, runtime) and interarrival gaps, so two streams
// with the same seed and classes emit the same k-th job no matter how
// their rates differ.
type Arrivals struct {
	cfg     ArrivalConfig
	shape   *sim.RNG
	gaps    *sim.RNG
	classes []Class
	total   int
	at      time.Duration
	n       int
	inBurst int // jobs left in the current burst (ArrivalBurst)
}

// NewArrivals builds the stream. Rate must be positive.
func NewArrivals(cfg ArrivalConfig) (*Arrivals, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate %v jobs/s", cfg.Rate)
	}
	if cfg.Process == "" {
		cfg.Process = ArrivalPoisson
	}
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 16
	}
	if cfg.BurstFactor <= 1 {
		cfg.BurstFactor = 8
	}
	classes := cfg.Classes
	if classes == nil {
		classes = ServeClasses()
	}
	total := 0
	for _, c := range classes {
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: arrival classes carry no weight")
	}
	shape, gaps := splitStreams(cfg.Seed)
	a := &Arrivals{cfg: cfg, shape: shape, gaps: gaps, classes: classes, total: total}
	a.inBurst = cfg.BurstLen
	return a, nil
}

// Next yields the next arrival. The returned entry's At is absolute
// virtual time from stream start.
func (a *Arrivals) Next() (TraceEntry, bool) {
	if a.cfg.MaxJobs > 0 && a.n >= a.cfg.MaxJobs {
		return TraceEntry{}, false
	}
	a.at += a.gap()
	if a.cfg.Horizon > 0 && a.at > a.cfg.Horizon {
		return TraceEntry{}, false
	}
	a.n++
	cls, run := drawShape(a.shape, a.classes, a.total)
	wall := cls.Walltime
	if wall == 0 {
		wall = cls.MaxRun
	}
	// The name "<class>-<n>", appended on the stack: one object, the string.
	var buf [64]byte
	name := strconv.AppendInt(append(append(buf[:0], cls.Name...), '-'), int64(a.n), 10)
	return TraceEntry{
		At:       a.at,
		Name:     string(name),
		Owner:    cls.Name,
		Nodes:    cls.Nodes,
		PPN:      cls.PPN,
		ACPN:     cls.ACPN,
		Runtime:  run,
		Walltime: wall,
		DynACs:   cls.DynACs,
		DynHold:  cls.DynHold,
	}, true
}

// Emitted reports how many entries the stream has yielded so far.
func (a *Arrivals) Emitted() int { return a.n }

// gap draws the next interarrival gap from the gap stream.
func (a *Arrivals) gap() time.Duration {
	mean := 1 / a.cfg.Rate // seconds
	switch a.cfg.Process {
	case ArrivalUniform:
		return time.Duration(a.gaps.Float64() * 2 * mean * float64(time.Second))
	case ArrivalBurst:
		// Within a burst: gaps at BurstFactor times the rate. Between
		// bursts: the idle remainder of the burst period, so the
		// long-run mean gap is still 1/Rate.
		if a.inBurst > 0 {
			a.inBurst--
			return time.Duration(mean / a.cfg.BurstFactor * float64(time.Second))
		}
		a.inBurst = a.cfg.BurstLen - 1
		idle := float64(a.cfg.BurstLen) * mean * (1 - 1/a.cfg.BurstFactor)
		return time.Duration((mean/a.cfg.BurstFactor + idle) * float64(time.Second))
	default: // ArrivalPoisson
		return time.Duration(a.gaps.Exp(mean) * float64(time.Second))
	}
}

// TraceSource adapts a recorded trace (Load, ParseSWF) into a Source:
// replay-from-SWF behind the same interface as the synthetic arrival
// processes.
type TraceSource struct {
	entries []TraceEntry
	i       int
}

// NewTraceSource wraps entries; they must already be in At order.
func NewTraceSource(entries []TraceEntry) *TraceSource {
	return &TraceSource{entries: entries}
}

// Next yields the next recorded entry.
func (t *TraceSource) Next() (TraceEntry, bool) {
	if t.i >= len(t.entries) {
		return TraceEntry{}, false
	}
	e := t.entries[t.i]
	t.i++
	return e, true
}
