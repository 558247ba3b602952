package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/prof"
)

// The breakdown experiment is the profiler's view of the scale
// ladder: it runs the ladder with a per-size tracer recording every
// layer's spans and lets internal/prof attribute each job's
// end-to-end latency — and the probe's dynamic request — to exact
// causal phases. It generalizes the paper's hand-made decompositions
// (Figures 7(a), 7(b), and 8: static allocation overhead vs dynamic
// request overhead) to whole workloads at 8→256 compute nodes.

// BreakdownPoint is one row of the breakdown figure: the per-phase
// mean decomposition of job latency at one cluster size.
type BreakdownPoint struct {
	ComputeNodes int
	Accelerators int
	Jobs         int // jobs fully attributed
	Incomplete   int // causal chains the profiler could not close
	// Static holds the per-phase means in prof.StaticPhases order;
	// Dyn the probe request's phases in prof.DynPhases order.
	Static   []prof.Phase
	Dyn      []prof.Phase
	Total    time.Duration // mean end-to-end job latency
	DynTotal time.Duration // mean dynamic request latency
	// Top are the largest critical-path owners across all jobs.
	Top []prof.OwnerShare
	Obs Observed
}

// Breakdown runs the profiler over the scale ladder (ScaleSizes when
// sizes is nil) under the chosen server mode — profiling the sharded
// mode lets dacobs prof -diff attribute exactly which phases the
// sharding buys back. The tracer is always attached; each point's raw
// span stream is its Obs.Spans.
func Breakdown(p cluster.Params, sizes []int, mode ServerMode, obs cluster.Observers) ([]BreakdownPoint, error) {
	if len(sizes) == 0 {
		sizes = ScaleSizes
	}
	obs.Trace = true
	return ladder("Breakdown", p, sizes, mode, breakdownProbe, obs, func(run *ladderRun) BreakdownPoint {
		profile := prof.Analyze(run.obs.Spans)
		sum := prof.Summarize(profile)
		pt := BreakdownPoint{
			ComputeNodes: run.obs.ComputeNodes,
			Accelerators: run.params.Accelerators,
			Jobs:         len(profile.Jobs),
			Incomplete:   len(profile.Incomplete),
			Total:        sum.Total.Mean(),
			DynTotal:     sum.DynTotal.Mean(),
			Top:          sum.TopPath(3),
			Obs:          run.obs,
		}
		for _, name := range prof.StaticPhases {
			if sm := sum.Static[name]; sm != nil {
				pt.Static = append(pt.Static, prof.Phase{Name: name, Dur: sm.Mean()})
			}
		}
		for _, name := range prof.DynPhases {
			if sm := sum.Dyn[name]; sm != nil {
				pt.Dyn = append(pt.Dyn, prof.Phase{Name: name, Dur: sm.Mean()})
			}
		}
		return pt
	})
}

// phaseCell renders one phase's mean, "-" when the phase is absent.
func phaseCell(phases []prof.Phase, name string) string {
	for _, ph := range phases {
		if ph.Name == name {
			return metrics.Ms(ph.Dur)
		}
	}
	return "-"
}

// BreakdownTable renders the static-chain decomposition, one row per
// cluster size (the paper's "static allocation overhead" axis).
func BreakdownTable(points []BreakdownPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   "Breakdown: static allocation phases vs cluster size (per-job means) [ms]",
		Headers: append(append([]string{"compute_nodes", "jobs"}, prof.StaticPhases...), "total"),
	}
	for _, pt := range points {
		row := []string{fmt.Sprint(pt.ComputeNodes), fmt.Sprint(pt.Jobs)}
		for _, name := range prof.StaticPhases {
			row = append(row, phaseCell(pt.Static, name))
		}
		row = append(row, metrics.Ms(pt.Total))
		t.AddRow(row...)
	}
	return t
}

// DynBreakdownTable renders the dynamic-request decomposition, one
// row per cluster size (the "dynamic request overhead" axis).
func DynBreakdownTable(points []BreakdownPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   "Breakdown: dynamic request phases vs cluster size [ms]",
		Headers: append(append([]string{"compute_nodes", "accelerators"}, prof.DynPhases...), "total"),
	}
	for _, pt := range points {
		row := []string{fmt.Sprint(pt.ComputeNodes), fmt.Sprint(pt.Accelerators)}
		for _, name := range prof.DynPhases {
			row = append(row, phaseCell(pt.Dyn, name))
		}
		row = append(row, metrics.Ms(pt.DynTotal))
		t.AddRow(row...)
	}
	return t
}
