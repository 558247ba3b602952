package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The serve experiment is the online-service view of the system: a
// resident cluster instance (internal/service) absorbing an open-loop
// Poisson submission stream at a target rate for a virtual duration —
// the load axis of the paper's Figure 8 generalized from a one-shot
// burst to sustained ingest. Each point reports steady-state SLO
// compliance (dynamic-request latency tail, scheduler cycle cost and
// occupancy, queue depth) plus the service's throughput ledger, all
// byte-identical at every -parallel level; host-side rates are
// cmd/dacperf's business.

// ServePoint is one row of the serve figure.
type ServePoint struct {
	ComputeNodes int
	Accelerators int
	Mode         ServerMode
	Rate         float64       // target submission rate, jobs per virtual second
	Horizon      time.Duration // admission window (virtual)
	Submitted    int
	Completed    int
	Makespan     time.Duration // virtual time at drain
	Dispatches   uint64        // kernel events dispatched
	Batches      uint64        // admission batches
	Recycled     uint64        // service ledger records reused
	Purged       uint64        // server job records purged by retention
	Compliance   []telemetry.Compliance
	// Obs is what the point's observers saw. The resident instance
	// owns a registry and scraper of its own, so Obs.Windows is filled
	// whether or not telemetry was asked for; a recorder gets no
	// periodic digest rounds.
	Obs Observed
}

// ServeSizes is the default compute-node axis of the serve figure.
var ServeSizes = []int{64, 256}

// ServeHorizon is the default virtual admission window per point.
const ServeHorizon = 60 * time.Second

// ServeRate picks the default open-loop rate for a cluster size: a
// quarter job per compute node per second, which loads the scheduler
// without saturating the scaled cost model at any ladder size.
func ServeRate(n int) float64 { return float64(n) / 4 }

// ServeOne runs a single resident instance at one cluster size with a
// custom arrival process — the dacserve CLI's entry point. Zero-value
// ArrivalConfig fields pick the figure defaults: Poisson process, the
// per-size ServeRate, the ladder seed, and a MaxJobs backstop of
// twice the expected admission count (the horizon bounds admission
// either way). The observers in obs are attached to the instance.
func ServeOne(p cluster.Params, n int, mode ServerMode, ac workload.ArrivalConfig, horizon time.Duration, obs cluster.Observers) (ServePoint, error) {
	if n < 1 {
		return ServePoint{}, fmt.Errorf("core: ServeOne size %d", n)
	}
	if horizon <= 0 {
		horizon = ServeHorizon
	}
	tp := scaleParams(p, n)
	if mode == ServerSharded {
		applyShardedParams(&tp, n)
	}
	obs.Telemetry = false // the instance brings its own
	ses := obs.Open()
	ses.Attach(&tp)
	if ac.Rate <= 0 {
		ac.Rate = ServeRate(n)
	}
	if ac.Seed == 0 {
		ac.Seed = tp.Seed
	}
	if ac.MaxJobs == 0 {
		ac.MaxJobs = int(ac.Rate * horizon.Seconds() * 2)
	}
	src, err := workload.NewArrivals(ac)
	if err != nil {
		return ServePoint{}, fmt.Errorf("core: ServeOne n=%d: %w", n, err)
	}
	rep, err := service.Run(service.Config{
		Cluster:        tp,
		Source:         src,
		Horizon:        horizon,
		ScrapeInterval: cluster.ObserveInterval,
	})
	if err != nil {
		return ServePoint{}, fmt.Errorf("core: ServeOne n=%d: %w", n, err)
	}
	seen := Observe(n, ses)
	seen.Windows = rep.Windows
	return ServePoint{
		ComputeNodes: n,
		Accelerators: tp.Accelerators,
		Mode:         mode,
		Rate:         ac.Rate,
		Horizon:      horizon,
		Submitted:    rep.Submitted,
		Completed:    rep.Completed,
		Makespan:     rep.Makespan,
		Dispatches:   rep.Dispatches,
		Batches:      rep.Stats.Batches,
		Recycled:     rep.Stats.Recycled,
		Purged:       rep.Records.Purged,
		Compliance:   rep.Compliance,
		Obs:          seen,
	}, nil
}

// Serve runs the online-service experiment across cluster sizes
// (ServeSizes when nil) under the given server mode. rate <= 0 picks
// ServeRate per size; horizon <= 0 uses ServeHorizon. Points fan out
// over the trial worker pool; every figure derived from the reports
// is byte-identical at any parallelism level.
func Serve(p cluster.Params, sizes []int, mode ServerMode, rate float64, horizon time.Duration, obs cluster.Observers) ([]ServePoint, error) {
	if len(sizes) == 0 {
		sizes = ServeSizes
	}
	if horizon <= 0 {
		horizon = ServeHorizon
	}
	out := make([]ServePoint, len(sizes))
	err := forEach(len(sizes), func(idx int) error {
		pt, err := ServeOne(p, sizes[idx], mode, workload.ArrivalConfig{Rate: rate}, horizon, obs)
		if err != nil {
			return err
		}
		out[idx] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// serveCompliant counts met objectives.
func serveCompliant(pt ServePoint) int {
	met := 0
	for _, c := range pt.Compliance {
		if c.Compliant {
			met++
		}
	}
	return met
}

// ServeTable renders the per-size overview of the serve figure.
func ServeTable(points []ServePoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Serve: open-loop online service (sustained ingest, steady-state SLOs)",
		Headers: []string{"compute_nodes", "accelerators", "mode", "rate_jobs_per_s",
			"submitted", "completed", "batches", "recycled", "purged",
			"makespan_ms", "windows", "slo_met"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprint(pt.ComputeNodes), fmt.Sprint(pt.Accelerators), string(pt.Mode),
			fmt.Sprintf("%.1f", pt.Rate),
			fmt.Sprint(pt.Submitted), fmt.Sprint(pt.Completed),
			fmt.Sprint(pt.Batches), fmt.Sprint(pt.Recycled), fmt.Sprint(pt.Purged),
			metrics.Ms(pt.Makespan), fmt.Sprint(len(pt.Obs.Windows)),
			fmt.Sprintf("%d/%d", serveCompliant(pt), len(pt.Compliance)),
		)
	}
	return t
}

// ServeComplianceTable renders the per-objective SLO evaluation of
// the serve figure, reusing the slo experiment's formatting.
func ServeComplianceTable(points []ServePoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Serve SLO compliance (worst observed value and virtual first-breach time)",
		Headers: []string{"compute_nodes", "mode", "objective", "stat",
			"target", "windows", "breaches", "worst", "first_breach_ms", "compliant"},
	}
	for _, pt := range points {
		for _, c := range pt.Compliance {
			first := "-"
			if c.First >= 0 {
				first = metrics.Ms(c.First)
			}
			t.AddRow(
				fmt.Sprint(pt.ComputeNodes), string(pt.Mode), c.Objective.Name,
				string(c.Objective.Stat), c.Objective.Target(),
				fmt.Sprint(c.Windows), fmt.Sprint(c.Breaches),
				sloValue(c.Objective.Stat, c.Worst), first,
				fmt.Sprint(c.Compliant),
			)
		}
	}
	return t
}
