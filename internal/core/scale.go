package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// The scale experiment extends the paper's 8-node evaluation to the
// cluster sizes its Section VI outlook targets: it grows the testbed
// to hundreds of compute nodes and thousands of network-attached
// accelerators, replays an SWF batch workload through the extended
// TORQUE/Maui stack, and reports how the scheduler cycle time and the
// latency of a dynamic request evolve with cluster size.
//
// Every reported quantity is virtual time: wall-clock measurement is
// confined to the CLI layer (cmd/dacsim, cmd/dacbench) so the series
// and their rendered tables are byte-identical run to run — the
// walltime analyzer in internal/lint enforces this.

// ScalePoint is one row of the scale table: a cluster of
// ComputeNodes/Accelerators working through Jobs trace jobs.
type ScalePoint struct {
	ComputeNodes int
	Accelerators int
	Jobs         int
	CycleMean    time.Duration // mean virtual scheduler cycle time
	CycleMax     time.Duration // longest virtual scheduler cycle
	DynLatency   time.Duration // dynamic request under full load (batch + MPI)
	Makespan     time.Duration // virtual time to drain the trace

	// Sharded-mode extras (zero in faithful runs): the server/scheduler
	// fan-out and the dynamic-request latency distribution observed by
	// the prober stream, read from the point's telemetry registry.
	Shards     int
	Partitions int
	Probers    int
	DynP50     time.Duration
	DynP99     time.Duration
	ShardBusy  float64 // mean per-shard busy fraction over the makespan

	// Obs is what the point's observers saw.
	Obs Observed
}

// ServerMode selects the server/scheduler configuration for the scale
// ladder ablation: the faithful mode reproduces the paper's single
// serial pbs_server and Maui's serial per-job cost, the sharded mode
// runs the server on Server.Shards stations and charges the one global
// Maui walk PerJobCost/Maui.Partitions per examined job.
type ServerMode string

const (
	ServerFaithful ServerMode = "faithful"
	ServerSharded  ServerMode = "sharded"
)

// ParseServerMode maps a CLI -server flag value to a ServerMode.
func ParseServerMode(s string) (ServerMode, error) {
	switch s {
	case "", string(ServerFaithful):
		return ServerFaithful, nil
	case string(ServerSharded):
		return ServerSharded, nil
	}
	return "", fmt.Errorf("core: unknown server mode %q (want faithful or sharded)", s)
}

// ScaleSizes is the default compute-node axis; with ACsPerCN and
// JobsPerCN the largest point is 256 nodes, 2048 accelerators, and
// 2048 trace jobs.
var ScaleSizes = []int{8, 32, 64, 128, 256}

// ScaleSizesExtended continues the ladder to the cluster sizes the
// paper's Section VI outlook targets; the top rungs are only
// tractable in virtual time once the sharded fast path amortizes the
// serial per-request and per-job costs.
var ScaleSizesExtended = []int{8, 32, 64, 128, 256, 1024, 4096}

// ShardsFor sizes the pbs_server shard pool for an n-node cluster:
// one shard per 64 compute nodes, clamped to [4, 64].
func ShardsFor(n int) int {
	s := n / 64
	if s < 4 {
		s = 4
	}
	if s > 64 {
		s = 64
	}
	return s
}

// PartitionsFor sizes the Maui per-job cost divisor (Params.Partitions)
// for an n-node cluster: one per 128 compute nodes, clamped to [2, 32].
func PartitionsFor(n int) int {
	p := n / 128
	if p < 2 {
		p = 2
	}
	if p > 32 {
		p = 32
	}
	return p
}

// applyShardedParams switches a parameter set from the faithful
// serial server to the sharded ablation at size n.
func applyShardedParams(tp *cluster.Params, n int) {
	tp.Server.Shards = ShardsFor(n)
	tp.Maui.Partitions = PartitionsFor(n)
}

// ACsPerCN and JobsPerCN set how accelerators and workload grow with
// the compute-node count.
const (
	ACsPerCN  = 8
	JobsPerCN = 8
)

// scaleWorkloadSWF synthesizes a Standard Workload Format trace for a
// cluster of n compute nodes: jobs arrive over a fixed submission
// window with runtimes, widths, and estimates drawn from a
// deterministic LCG, so every run of the experiment sees the same
// trace. seed perturbs the stream (seed 0 reproduces the historical
// trace byte for byte); distinct seeds give the two-seed recordings
// the audit diff in CI compares. Emitting SWF text and parsing it
// back through ParseSWF exercises the same import path a production
// trace would use.
func scaleWorkloadSWF(n, jobs, coresPerNode int, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; synthetic scale workload: %d jobs for %d compute nodes\n", jobs, n)
	state := (uint64(n)+seed)*2654435761 + 12345
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	window := 60 // submission window in seconds
	for j := 0; j < jobs; j++ {
		submit := j * window / jobs
		runSec := 1 + next(8)                 // 1..8 s
		procs := 1 + next(2*coresPerNode)     // up to two nodes wide
		reqSec := runSec + 1 + next(2*runSec) // loose estimate, room for backfill
		uid := next(16)
		// 18 SWF fields: job, submit, wait, run, procs-used, cpu, mem,
		// procs-req, time-req, mem-req, status, uid, gid, exe, queue,
		// partition, prev-job, think-time.
		fmt.Fprintf(&b, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d -1 -1 -1 -1 -1 -1\n",
			j+1, submit, runSec, procs, procs, reqSec, uid)
	}
	return b.String()
}

// scaleParams derives a cheap cost model from the calibrated one: the
// paper-calibrated per-job and per-cycle costs are sized for a 7-node
// testbed and would dominate virtual time at 256 nodes, so the scale
// run shrinks them while keeping every mechanism (priority, backfill,
// dynamic top-priority) active.
func scaleParams(p cluster.Params, n int) cluster.Params {
	tp := p
	tp.ComputeNodes = n
	tp.Accelerators = n * ACsPerCN
	tp.Seed = uint64(n) + p.Seed
	tp.Maui.CycleInterval = 250 * time.Millisecond
	tp.Maui.CycleOverhead = 10 * time.Millisecond
	tp.Maui.PerJobCost = 200 * time.Microsecond
	tp.Maui.DynPerReqCost = time.Millisecond
	tp.Server.Processing = time.Millisecond
	return tp
}

// Scale runs the scale ladder for the given compute-node counts
// (ScaleSizes when nil) under the chosen server mode, with the given
// observers attached to every point. The faithful mode measures one
// probe's dynamic request under full load; the sharded mode instead
// drives an open-loop prober stream (a single probe carries no tail
// signal) and reports dynamic-request p50/p99 and per-shard occupancy
// from the point's registry, which it therefore always attaches.
func Scale(p cluster.Params, sizes []int, mode ServerMode, obs cluster.Observers) ([]ScalePoint, error) {
	if len(sizes) == 0 {
		sizes = ScaleSizes
	}
	pr := scaleProbe
	if mode == ServerSharded {
		pr = scaleStream
		obs.Telemetry = true
	}
	return ladder("Scale", p, sizes, mode, pr, obs, func(run *ladderRun) ScalePoint {
		pt := ScalePoint{
			ComputeNodes: run.obs.ComputeNodes,
			Accelerators: run.params.Accelerators,
			Jobs:         run.jobs,
			CycleMean:    run.sched.CycleTimeMean(),
			CycleMax:     run.sched.CycleTimeMax,
			DynLatency:   run.firstDyn,
			Makespan:     run.makespan,
			Obs:          run.obs,
		}
		if mode != ServerSharded {
			return pt
		}
		pt.Shards = run.params.Server.Shards
		pt.Partitions = run.params.Maui.Partitions
		pt.Probers = run.probers
		dyn := run.reg.Histogram("pbs.dyn_latency")
		pt.DynP50 = dyn.Quantile(0.50)
		pt.DynP99 = dyn.Quantile(0.99)
		if busy := run.reg.Occupancy("pbs.shard_occupancy").Busy(); pt.Makespan > 0 && pt.Shards > 0 {
			pt.ShardBusy = busy.Seconds() / (pt.Makespan.Seconds() * float64(pt.Shards))
		}
		return pt
	})
}

// ScaleTable renders the scale series in the style of the paper's
// measurement tables.
func ScaleTable(points []ScalePoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Scale: scheduler cycle time and dynamic-request latency vs cluster size",
		Headers: []string{"compute_nodes", "accelerators", "jobs",
			"cycle_mean_ms", "cycle_max_ms", "dyn_latency_ms", "makespan_ms"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprint(pt.ComputeNodes), fmt.Sprint(pt.Accelerators), fmt.Sprint(pt.Jobs),
			metrics.Ms(pt.CycleMean), metrics.Ms(pt.CycleMax), metrics.Ms(pt.DynLatency),
			metrics.Ms(pt.Makespan),
		)
	}
	return t
}

// ScaleShardedTable renders the sharded ladder with its extra
// telemetry columns: the shard/partition fan-out, the prober stream's
// dynamic-latency quantiles, and the mean per-shard busy fraction.
func ScaleShardedTable(points []ScalePoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Scale (sharded server): cycle time and dyn-latency quantiles vs cluster size",
		Headers: []string{"compute_nodes", "jobs", "shards", "partitions", "probers",
			"cycle_mean_ms", "cycle_max_ms", "dyn_p50_ms", "dyn_p99_ms",
			"shard_busy", "makespan_ms"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprint(pt.ComputeNodes), fmt.Sprint(pt.Jobs),
			fmt.Sprint(pt.Shards), fmt.Sprint(pt.Partitions), fmt.Sprint(pt.Probers),
			metrics.Ms(pt.CycleMean), metrics.Ms(pt.CycleMax),
			metrics.Ms(pt.DynP50), metrics.Ms(pt.DynP99),
			fmt.Sprintf("%.4f", pt.ShardBusy),
			metrics.Ms(pt.Makespan),
		)
	}
	return t
}
