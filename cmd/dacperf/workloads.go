package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// kind selects which driver loop a workload runs through.
type kind int

const (
	kindBatch kind = iota // SWF text -> ParseSWF -> Replay -> Wait
	kindServe             // service.New + Serve over a Poisson ArrivalConfig
	kindDyn               // closed-loop AC_Get/AC_Free jobs
)

// attach names the observability subsystems wired into a rep. The
// zero value is the bare simulator every timed rep but obs-on's uses.
type attach struct {
	telemetry bool // registry; with scrape also a 5 s Scraper
	scrape    bool
	audit     bool // recorder + 5 s digest Ticker
	trace     bool // default trace.New()
}

var obsAll = attach{telemetry: true, scrape: true, audit: true, trace: true}

// workloadDef is one row of the workload table in README.md. Sizes are
// fixed by the benchmark's definition: a later change that wants to
// compare against earlier reports must not edit them.
type workloadDef struct {
	name string
	op   string // the unit host_us_per_op divides by
	why  string

	kind    kind
	cns     int
	sharded bool
	jobs    int           // batch, dyn: jobs submitted
	window  time.Duration // batch, dyn: submission window; serve: admission horizon
	rate    float64       // serve: Poisson arrivals per virtual second
	reqs    int           // dyn: AC_Get/AC_Free rounds per job
	obs     attach        // attached in every rep, timed ones included
}

// Cost model shared by all workloads: the values core.scaleParams
// uses, spelled out through public cluster.Params fields.
const (
	coresPerCN = 8
	acsPerCN   = 8

	dynACs   = 2
	dynHold  = 200 * time.Millisecond
	dynThink = 300 * time.Millisecond
	// dynJitter is the half-width of the seeded think-time jitter: it
	// de-phases the 128 concurrent request loops so they do not all hit
	// the server in the same scheduler cycle.
	dynJitter = 100 * time.Millisecond

	obsInterval = 5 * time.Second // scrape and digest cadence, as dacsim -metrics -audit
)

func (d workloadDef) params() cluster.Params {
	p := cluster.Default()
	p.ComputeNodes = d.cns
	p.Accelerators = d.cns * acsPerCN
	p.CoresPerNode = coresPerCN
	p.Maui.CycleInterval = 250 * time.Millisecond
	p.Maui.CycleOverhead = 10 * time.Millisecond
	p.Maui.PerJobCost = 200 * time.Microsecond
	p.Maui.DynPerReqCost = time.Millisecond
	p.Server.Processing = time.Millisecond
	if d.sharded {
		p.Server.Shards = core.ShardsFor(d.cns)
		p.Maui.Partitions = core.PartitionsFor(d.cns)
	}
	return p
}

// ops is the number of operations a rep attempts, where the input
// fixes it; serve-open learns it from the arrival stream.
func (d workloadDef) ops() int {
	if d.kind == kindDyn {
		return d.jobs * d.reqs
	}
	return d.jobs
}

// workloads returns the six workloads at their defined sizes, or at
// toy sizes (8 CN, 64 ops) for the package's own smoke test.
func workloads(toy bool) []workloadDef {
	ws := []workloadDef{
		{
			name: "batch-narrow", op: "job reaching JobCompleted", kind: kindBatch,
			cns: 64, jobs: 16384, window: 1920 * time.Second,
			why: "tiny node table and ~16k scheduler cycles, so per-event cost (sim handoff, netsim hop, mom handlers, idle Maui cycles) dominates and O(nodes) work is negligible",
		},
		{
			name: "batch-wide", op: "job reaching JobCompleted", kind: kindBatch,
			cns: 1024, jobs: 16384, window: 120 * time.Second,
			why: "same 16384 jobs on 16x the nodes: per-cycle O(nodes) work in pbs sched-info/node view and the maui pool reset dominates",
		},
		{
			name: "sharded-wide", op: "job reaching JobCompleted", kind: kindBatch,
			cns: 1024, jobs: 16384, window: 120 * time.Second, sharded: true,
			why: "byte-identical input to batch-wide through the second server/scheduler path (pbs/shard.go, maui/partition.go): batched RPCs, partition-parallel scoring, rejected placements",
		},
		{
			name: "serve-open", op: "admitted job reaching a terminal state", kind: kindServe,
			cns: 256, rate: core.ServeRate(256), window: 240 * time.Second,
			why: "the resident-service path: admission batching, pooled job records and retention rings, the always-on registry and scraper, at a node count where service-layer cost is visible",
		},
		{
			name: "dyn-storm", op: "dynamic request (AC_Get..AC_Free)", kind: kindDyn,
			cns: 64, jobs: 512, reqs: 16, window: 60 * time.Second,
			why: "the paper's contribution: pbs_dynget, dynqueued, top-priority Maui, DYNJOIN, MPI_Comm_spawn+merge, DISJOIN outnumber submits 16:1; most events per op on the smallest tables",
		},
		{
			name: "obs-on", op: "job reaching JobCompleted", kind: kindBatch,
			cns: 64, jobs: 8192, window: 960 * time.Second, obs: obsAll,
			why: "the cost of observability when on: telemetry registry + scraper, audit recorder + ticker and a default tracer attached, as dacsim -audit -trace -metrics; every other workload guards the no-op path",
		},
	}
	if !toy {
		return ws
	}
	for i := range ws {
		d := &ws[i]
		d.cns = 8
		switch d.kind {
		case kindBatch:
			d.jobs = 64
			// Keep each workload's jobs/CN/s ratio so the toy run walks
			// the same code paths (queueing on wide, idle cycles on narrow).
			if d.window > 200*time.Second {
				d.window = 60 * time.Second
			} else {
				d.window = 4 * time.Second
			}
		case kindServe:
			d.rate, d.window = 4, 16*time.Second
		case kindDyn:
			d.jobs, d.reqs, d.window = 16, 4, 4*time.Second
		}
	}
	return ws
}

func findWorkload(ws []workloadDef, name string) (workloadDef, bool) {
	for _, d := range ws {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// input is everything the simulator receives for one rep: generated
// SWF text, the dyn-storm think times that become JobSpecs, or an
// ArrivalConfig. digest is the FNV-64a of its canonical text, so two
// reports can show they ran the same bytes.
type input struct {
	swf      string
	think    [][]time.Duration
	arrivals workload.ArrivalConfig
	digest   uint64
}

// generate derives the workload's input from seed. Each generator owns
// one Split stream of sim.NewRNG(seed), drawn in a fixed order, so all
// batch workloads see the same job shapes and only their submission
// window differs.
func (d workloadDef) generate(seed uint64) input {
	root := sim.NewRNG(seed)
	swfRNG, dynRNG, arrRNG := root.Split(), root.Split(), root.Split()
	var in input
	h := fnv.New64a()
	switch d.kind {
	case kindBatch:
		in.swf = genSWF(swfRNG, d.jobs, d.window)
		h.Write([]byte(in.swf))
	case kindDyn:
		in.think = make([][]time.Duration, d.jobs)
		for j := range in.think {
			in.think[j] = make([]time.Duration, d.reqs)
			for r := range in.think[j] {
				t := dynThink + time.Duration((2*dynRNG.Float64()-1)*float64(dynJitter))
				in.think[j][r] = t
				fmt.Fprintf(h, "%d ", t)
			}
		}
	case kindServe:
		in.arrivals = workload.ArrivalConfig{
			Process: workload.ArrivalPoisson,
			Rate:    d.rate,
			Seed:    arrRNG.Uint64(),
		}
		fmt.Fprintf(h, "%s %v %d %v", in.arrivals.Process, in.arrivals.Rate, in.arrivals.Seed, d.window)
	}
	in.digest = h.Sum64()
	return in
}

// genSWF writes jobs Standard Workload Format lines submitted evenly
// over window: runtime 1-8 s, width 1-16 processors (up to two 8-core
// nodes), a loose walltime estimate that leaves room for backfill, and
// 16 users for fairshare. The shape mirrors core's scale ladder; only
// the random source differs.
func genSWF(rng *sim.RNG, jobs int, window time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; dacperf: %d jobs over %v\n", jobs, window)
	secs := int(window / time.Second)
	for j := 0; j < jobs; j++ {
		submit := j * secs / jobs
		run := 1 + rng.Intn(8)
		procs := 1 + rng.Intn(2*coresPerCN)
		req := run + 1 + rng.Intn(2*run)
		uid := rng.Intn(16)
		// job submit wait run procs cpu mem procs-req time-req mem-req
		// status uid gid exe queue partition prev-job think-time
		fmt.Fprintf(&b, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d -1 -1 -1 -1 -1 -1\n",
			j+1, submit, run, procs, procs, req, uid)
	}
	return b.String()
}
