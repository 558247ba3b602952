package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// The slo experiment is the live-telemetry view of the scale ladder:
// it replays the synthetic SWF workload on clusters of growing size
// while an open-loop stream of prober jobs issues paced dynamic
// requests, scrapes every layer's instruments on a fixed virtual-time
// interval, and evaluates a set of service-level objectives against
// the windowed series. Where the breakdown figure explains *why* a
// latency is what it is, the slo figure watches it *live*: per-window
// p50/p99/p999 dynamic-request latency, scheduler cycle occupancy,
// queue depth, and fabric load, with per-objective compliance and the
// virtual timestamp of the first breach.

// SLOPoint is one row of the slo figure: a cluster size and the
// compliance evaluation of its scrape series (Obs.Windows, one window
// per cluster.ObserveInterval; Obs.Prom is the final cumulative state).
type SLOPoint struct {
	ComputeNodes int
	Accelerators int
	Jobs         int // trace jobs replayed
	Probers      int // dynamic-request prober jobs
	DynGranted   int // dynamic requests granted across the run
	Makespan     time.Duration
	Compliance   []telemetry.Compliance // SLOObjectives() evaluated over Obs.Windows
	Obs          Observed
}

// SLOSizes is the default compute-node axis of the slo figure: the
// top half of the scale ladder, where the scheduler is busy enough
// for occupancy and latency windows to carry signal.
var SLOSizes = []int{64, 128, 256}

// SLOObjectives is the figure's service-level objective set. The
// latency and cycle bounds are calibrated against the ladder's
// observed baselines with ~3x headroom, so they hold at every size; the
// scheduler-occupancy bound is deliberately tight — a busy scheduler
// breaches it in the first windows, exercising the first-breach
// timestamp that a real operator would alarm on.
func SLOObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{Name: "dyn-p50", Instrument: "pbs.dyn_latency", Stat: telemetry.StatP50, Max: 0.150},
		{Name: "dyn-p99", Instrument: "pbs.dyn_latency", Stat: telemetry.StatP99, Max: 0.250},
		{Name: "cycle-mean", Instrument: "maui.cycle", Stat: telemetry.StatMean, Max: 0.050},
		{Name: "sched-occupancy", Instrument: "maui.occupancy", Stat: telemetry.StatDelta, Max: 0.02},
	}
}

// SLO runs the live-telemetry experiment for the given compute-node
// counts (SLOSizes when nil): the ladder under the slo prober stream
// with telemetry always attached, plus whatever other observers the
// caller asks for. Tables, scrape series and Prometheus pages are
// byte-identical at any parallelism level.
func SLO(p cluster.Params, sizes []int, obs cluster.Observers) ([]SLOPoint, error) {
	if len(sizes) == 0 {
		sizes = SLOSizes
	}
	obs.Telemetry = true
	objectives := SLOObjectives()
	return ladder("SLO", p, sizes, ServerFaithful, sloStream, obs, func(run *ladderRun) SLOPoint {
		return SLOPoint{
			ComputeNodes: run.obs.ComputeNodes,
			Accelerators: run.params.Accelerators,
			Jobs:         run.jobs,
			Probers:      run.probers,
			DynGranted:   int(run.reg.Counter("pbs.dyn_granted").Value()),
			Makespan:     run.makespan,
			Compliance:   telemetry.Evaluate(run.obs.Windows, objectives),
			Obs:          run.obs,
		}
	})
}

// sloCompliant counts the objectives a point meets.
func sloCompliant(pt SLOPoint) int {
	met := 0
	for _, c := range pt.Compliance {
		if c.Compliant {
			met++
		}
	}
	return met
}

// SLOTable renders the per-size overview of the slo figure.
func SLOTable(points []SLOPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "SLO: live telemetry over the scale ladder (open-loop dynamic-request stream)",
		Headers: []string{"compute_nodes", "accelerators", "jobs", "probers",
			"dyn_granted", "windows", "makespan_ms", "slo_met"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprint(pt.ComputeNodes), fmt.Sprint(pt.Accelerators), fmt.Sprint(pt.Jobs),
			fmt.Sprint(pt.Probers), fmt.Sprint(pt.DynGranted), fmt.Sprint(len(pt.Obs.Windows)),
			metrics.Ms(pt.Makespan),
			fmt.Sprintf("%d/%d", sloCompliant(pt), len(pt.Compliance)),
		)
	}
	return t
}

// sloValue renders an observed statistic in the objective's native
// unit: milliseconds for time-valued stats, plain for ratios/counts.
func sloValue(stat telemetry.Stat, v float64) string {
	switch stat {
	case telemetry.StatP50, telemetry.StatP99, telemetry.StatP999,
		telemetry.StatMean, telemetry.StatMax:
		return fmt.Sprintf("%.3fms", v*1e3)
	}
	return fmt.Sprintf("%.4f", v)
}

// SLOComplianceTable renders the per-objective evaluation: one row per
// (cluster size, objective) with the bound, the worst observed value,
// and the virtual time of the first breach.
func SLOComplianceTable(points []SLOPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "SLO compliance (worst observed value and virtual first-breach time)",
		Headers: []string{"compute_nodes", "objective", "instrument", "stat",
			"target", "windows", "breaches", "worst", "first_breach_ms", "compliant"},
	}
	for _, pt := range points {
		for _, c := range pt.Compliance {
			first := "-"
			if c.First >= 0 {
				first = metrics.Ms(c.First)
			}
			t.AddRow(
				fmt.Sprint(pt.ComputeNodes), c.Objective.Name, c.Objective.Instrument,
				string(c.Objective.Stat), c.Objective.Target(),
				fmt.Sprint(c.Windows), fmt.Sprint(c.Breaches),
				sloValue(c.Objective.Stat, c.Worst), first,
				fmt.Sprint(c.Compliant),
			)
		}
	}
	return t
}
