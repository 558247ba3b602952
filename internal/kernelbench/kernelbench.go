// Package kernelbench holds the simulation-kernel microbenchmark
// bodies. They live in a plain package (not a _test file) so two
// consumers share one definition: the root bench_test.go wraps them as
// ordinary `go test -bench` benchmarks, and cmd/dacbench drives them
// through testing.Benchmark to record allocs/op series for the
// regression gate. Each body measures a steady-state hot path the
// zero-allocation tier-1 tests pin at 0 allocs/op.
package kernelbench

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func bump(a any) { *(a.(*int))++ }

// EventDispatch measures closure-free timer dispatch: one AfterArg
// schedule plus its pop and in-place run, per iteration.
func EventDispatch(b *testing.B) {
	s := sim.New()
	hits := new(int)
	if err := s.Run(func() {
		for i := 0; i < 16; i++ { // warm pools and queue storage
			s.AfterArg(time.Microsecond, bump, hits)
			s.Sleep(2 * time.Microsecond)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AfterArg(time.Microsecond, bump, hits)
			s.Sleep(2 * time.Microsecond)
		}
	}); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// SleepWake measures a lone actor's Sleep. With nothing else runnable
// and no event due first the kernel advances the clock in place, so
// this is the cost of the in-place advance — one s.mu round trip — not
// of a park; SleepPark measures that.
func SleepWake(b *testing.B) {
	s := sim.New()
	if err := s.Run(func() {
		for i := 0; i < 16; i++ {
			s.Sleep(time.Microsecond)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Microsecond)
		}
	}); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// SleepPark measures the actor park/dispatch/wake round trip through
// the queue and the sleepers' wake channels: two actors sleep the same
// period half a period apart, so every Sleep finds the other's wake due
// first, parks and releases it. One iteration is one Sleep of the timed
// actor and one of the off-beat one.
func SleepPark(b *testing.B) {
	s := sim.New()
	if err := s.Run(func() {
		s.Go("bench/offbeat", func() {
			s.Sleep(time.Microsecond)
			for {
				s.Sleep(2 * time.Microsecond)
			}
		})
		for i := 0; i < 16; i++ {
			s.Sleep(2 * time.Microsecond)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Sleep(2 * time.Microsecond)
		}
	}); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// HistogramRecord measures one streaming-histogram observation: the
// log-scale bucket index plus four atomic updates. The telemetry
// zero-alloc gate (internal/telemetry's TestRecordZeroAlloc) pins this
// path at 0 allocs/op; dacbench records the same number as a gated
// series so growth fails the benchmark-regression job too.
func HistogramRecord(b *testing.B) {
	h := telemetry.NewHistogram()
	for i := 0; i < 16; i++ { // settle bucket state
		h.Record(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle through ~3 decades of latency so records hit many
		// buckets, like real dyn_latency observations do.
		h.Record(time.Duration(i%1000+1) * 50 * time.Microsecond)
	}
}

// scrapeClock is the minimal manual telemetry.Clock for driving
// ScrapeNow without a simulation kernel.
type scrapeClock struct{ now time.Duration }

func (c *scrapeClock) Now() time.Duration          { return c.now }
func (c *scrapeClock) After(time.Duration, func()) {}
func (c *scrapeClock) advance(d time.Duration)     { c.now += d }

// RegistryScrape measures one full scrape cycle over a representative
// instrument mix (4 counters, 2 gauges, 2 histograms, 1 occupancy —
// roughly what one instrumented subsystem registers). Each iteration
// is self-contained — fresh scraper, warm-up scrape, then 4 windows —
// so allocs/op is a deterministic constant the dacbench compare gate
// can hold flat.
func RegistryScrape(b *testing.B) {
	clk := &scrapeClock{}
	reg := telemetry.New()
	ctrs := []*telemetry.Counter{
		reg.Counter("bench.submits"), reg.Counter("bench.msgs"),
		reg.Counter("bench.bytes"), reg.Counter("bench.done"),
	}
	gauges := []*telemetry.Gauge{
		reg.Gauge("bench.queue_depth"), reg.Gauge("bench.inflight"),
	}
	hists := []*telemetry.Histogram{
		reg.Histogram("bench.latency"), reg.Histogram("bench.cycle"),
	}
	occ := reg.Occupancy("bench.busy")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr := telemetry.NewScraper(reg, clk, time.Second)
		scr.ScrapeNow() // establish prev-state baselines
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
			clk.advance(time.Second)
			scr.ScrapeNow()
		}
	}
}

// NetsimHop measures one fabric hop: arena send, scheduled delivery,
// matched receive, and envelope release.
func NetsimHop(b *testing.B) {
	s := sim.New()
	if err := s.Run(func() {
		n := netsim.New(s, netsim.LinkParams{Latency: time.Microsecond})
		src := n.Endpoint("bench/src")
		dst := n.Endpoint("bench/dst")
		defer src.Close()
		defer dst.Close()
		hop := func() {
			if err := src.Send("bench/dst", "ping", "payload", 64); err != nil {
				b.Errorf("Send: %v", err)
			}
			m, err := dst.Recv()
			if err != nil {
				b.Errorf("Recv: %v", err)
				return
			}
			m.Release()
		}
		for i := 0; i < 16; i++ {
			hop()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hop()
		}
	}); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// ArrivalsNext measures one open-loop arrival draw: an interarrival
// gap from the dedicated arrival RNG stream plus a weighted shape
// pick and job naming. The service admission pump pays this once per
// admitted job, so its per-op cost (a couple of small allocations for
// the job name and dynamic-phase script) bounds ingest overhead at
// millions of jobs per virtual hour.
func ArrivalsNext(b *testing.B) {
	src, err := workload.NewArrivals(workload.ArrivalConfig{Rate: 1000, Seed: 1})
	if err != nil {
		b.Fatalf("NewArrivals: %v", err)
	}
	for i := 0; i < 16; i++ { // settle RNG and counter state
		if _, ok := src.Next(); !ok {
			b.Fatal("source dried up")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("source dried up")
		}
	}
}

// AuditRecordDisabled measures the recorder-disabled hot path: every
// pbs/maui/netsim/gpusim mutation site calls Record unconditionally
// on a possibly-nil recorder, so the nil path must stay free — the
// audit layer's zero-alloc gate (internal/audit's
// TestDisabledRecordAllocs) pins it at 0 allocs/op and dacbench
// records the same number as a gated series.
func AuditRecordDisabled(b *testing.B) {
	var rec *audit.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(audit.KindJob, "pbs", "1.server", "submit", int64(i), 0)
	}
}

// AuditRecordEnabled measures the recorder-enabled hot path: one
// in-place ring-slot write under the recorder mutex, no per-event
// allocation (the concrete-typed signature keeps payloads out of
// interface boxes).
func AuditRecordEnabled(b *testing.B) {
	rec := audit.New(1 << 12)
	for i := 0; i < 16; i++ { // settle the ring storage
		rec.Record(audit.KindJob, "pbs", "1.server", "submit", int64(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(audit.KindJob, "pbs", "1.server", "submit", int64(i), 0)
	}
}

// schedCycle1024 steps Maui cycles by hand against a live pbs_server on
// a 1024-CN / 8192-AC cluster with an empty queue, calling churn (when
// non-nil) with the clock stopped before each timed cycle. No
// scheduler actor runs and the server has none to kick, so the cycle
// under the clock is one SchedInfo round plus the pool update.
func schedCycle1024(b *testing.B, churn func(c *cluster.Cluster, i int)) {
	p := cluster.Default()
	p.ComputeNodes, p.Accelerators = 1024, 8192
	s := sim.Acquire()
	defer s.Release()
	c := cluster.New(s, p)
	c.Server.SetScheduler("")
	if err := s.Run(func() {
		defer c.Close()
		c.Server.Start()
		for i := 0; i < 16; i++ { // first full answer, pooled buffers, scratch
			c.Sched.RunCycleOnce()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if churn != nil {
				b.StopTimer()
				churn(c, i)
				b.StartTimer()
			}
			c.Sched.RunCycleOnce()
		}
	}); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// SchedCycleIdle1024 measures one scheduling iteration when nothing
// changed since the last: the server's answer carries no node, the
// scheduler's mirror and pools stay as they are, and the round
// allocates nothing (pinned at 0 allocs/op).
func SchedCycleIdle1024(b *testing.B) { schedCycle1024(b, nil) }

// SchedCycleChurn1024 is the same iteration after 16 nodes changed:
// a window of 16 accelerators sliding over the table fails on even
// iterations and reports back on odd ones, so every cycle's answer
// carries 16 nodes and the pools patch exactly those.
func SchedCycleChurn1024(b *testing.B) {
	const window = 16
	var hb *netsim.Endpoint
	schedCycle1024(b, func(c *cluster.Cluster, i int) {
		if hb == nil {
			hb = c.Net.Endpoint("bench/heartbeat")
		}
		first := (i / 2 * window) % c.Params.Accelerators
		for k := first; k < first+window; k++ {
			if i%2 == 0 {
				c.Server.NodeDownForTest(cluster.ACName(k))
			} else if err := hb.Send(pbs.ServerEndpoint, "pbs", pbs.HeartbeatMsg{Host: cluster.ACName(k)}, 0); err != nil {
				b.Errorf("Send: %v", err)
			}
		}
		// The server handles one heartbeat per Processing interval.
		c.Sim.Sleep(time.Duration(window+1) * c.Params.Server.Processing)
	})
}
