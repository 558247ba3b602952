package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/maui"
	"repro/internal/metrics"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The SWF ladder is the one experiment body behind the scale, slo and
// breakdown figures: build a cluster of n compute nodes, submit the
// prober job(s) on the idle cluster, replay the synthetic SWF trace,
// let the probers issue dynamic requests into the loaded scheduler,
// wait for everything to drain, and collect. The figures differ only
// in which probers run, which observers are attached, and which
// columns they derive from the run.

// prober is the shape of a ladder run's probe jobs. Each prober holds
// one core from the idle cluster on; once the trace is fully
// submitted it issues reqs dynamic requests for one accelerator,
// holding each granted one for hold and pausing pace between
// requests. Prober i of k starts pace*i/k late, so the phases of an
// open-loop stream differ.
type prober struct {
	name  string          // job name; a stream numbers its jobs name-<i>
	acpn  int             // statically allocated accelerators per prober
	count func(n int) int // stream width at n compute nodes; nil = one unnumbered probe
	reqs  int
	pace  time.Duration
	hold  time.Duration
}

var (
	// One probe measuring a single dynamic request under full load:
	// the faithful scale figure's dyn_latency column.
	scaleProbe = prober{name: "scale-probe", reqs: 1}
	// The sharded ladder's open-loop stream. Shorter than the slo
	// stream: the top rungs replay 32k jobs, so each prober issues a
	// dozen paced requests across the drain.
	scaleStream = prober{name: "scale-probe", count: scaleProbers, reqs: 12,
		pace: 3 * time.Second, hold: 250 * time.Millisecond}
	// The slo figure's stream spans the SWF submission window and its
	// drain; the hold is long enough for dac.util_dynamic to carry
	// signal.
	sloStream = prober{name: "slo-probe", count: sloProbers, reqs: 24,
		pace: 3 * time.Second, hold: 500 * time.Millisecond}
	// The breakdown probe exercises the full static chain (two
	// statically allocated accelerators) and then the dynamic chain
	// under load.
	breakdownProbe = prober{name: "breakdown-probe", acpn: 2, reqs: 1}
)

// scaleProbers sets the width of the sharded ladder's stream: one
// prober per 64 compute nodes, clamped to [2, 64] so the tail
// quantiles carry samples without the probers becoming the workload.
func scaleProbers(n int) int {
	p := n / 64
	if p < 2 {
		p = 2
	}
	if p > 64 {
		p = 64
	}
	return p
}

// sloProbers sets how many prober jobs run at a cluster size: enough
// that every scrape window sees dynamic-request samples, few enough
// that the probers do not become the workload.
func sloProbers(n int) int {
	if p := n / 32; p > 2 {
		return p
	}
	return 2
}

// AuditCapacity is the per-point flight-recorder ring size. The
// largest default ladder point (256 nodes, 2048 jobs) emits well
// under this many events, so default recordings never wrap.
const AuditCapacity = audit.DefaultCapacity

// Observed is what the observers attached to one ladder point saw:
// the capture (span stream, flight recording, scrape series — each
// empty when its observer was off) and the counters that do not
// travel as capture lines.
type Observed struct {
	ComputeNodes int
	capture.File

	// Prom is the Prometheus text exposition of the registry's final
	// cumulative state ("" without telemetry).
	Prom string
	// Checks and Breaches count invariant evaluations and failures;
	// Dropped counts audit events lost to ring wrap (0 on default
	// ladders); Rounds counts digest capture rounds (the ticker's
	// periodic captures plus the final one at drain).
	Checks, Breaches, Dropped, Rounds int64
}

// FinalDigests returns the last captured sum per digest provider —
// the end-of-run state fingerprint used by the faithful-vs-sharded
// identity gate.
func (o *Observed) FinalDigests() map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range o.Audit {
		if e.Kind == audit.KindDigest {
			out[e.Subj] = uint64(e.A)
		}
	}
	return out
}

// Observe collects a finished session's view of an n-node run (n is
// 0 for a session shared by runs of several shapes).
func Observe(n int, ses *cluster.Session) Observed {
	return Observed{
		ComputeNodes: n,
		File:         ses.File(),
		Checks:       ses.Recorder.Checks(),
		Breaches:     ses.Recorder.Breaches(),
		Dropped:      ses.Recorder.Dropped(),
		Rounds:       ses.Recorder.DigestCaptures(),
	}
}

// AuditBreaches sums invariant breaches across a set of observed
// points (the CI smoke step asserts this is zero).
func AuditBreaches(points []Observed) int64 {
	var total int64
	for i := range points {
		total += points[i].Breaches
	}
	return total
}

// AuditTable renders the audit counters of each observed run (a
// session shared across cluster shapes has no node count to show).
func AuditTable(points []Observed) *metrics.Table {
	t := &metrics.Table{
		Title: "Audit: flight-recorder events, invariant checks, and digest rounds per observed run",
		Headers: []string{"compute_nodes", "events", "dropped",
			"checks", "breaches", "digest_rounds"},
	}
	for i := range points {
		pt := &points[i]
		nodes := "-"
		if pt.ComputeNodes > 0 {
			nodes = fmt.Sprint(pt.ComputeNodes)
		}
		t.AddRow(
			nodes, fmt.Sprint(len(pt.Audit)), fmt.Sprint(pt.Dropped),
			fmt.Sprint(pt.Checks), fmt.Sprint(pt.Breaches), fmt.Sprint(pt.Rounds),
		)
	}
	return t
}

// ladderRun is the raw outcome of one ladder point, before a figure
// picks its columns.
type ladderRun struct {
	params   cluster.Params // the point's derived parameter set
	jobs     int            // trace jobs replayed
	probers  int
	makespan time.Duration // virtual time to drain trace and probers
	sched    maui.Stats
	firstDyn time.Duration // prober 0's first request, batch + MPI (0 if rejected)
	reg      *telemetry.Registry
	obs      Observed
}

// ladderPoint runs one SWF ladder point. Every job name, submission
// instant and request of a given (mode, prober) pair is fixed, and
// observers cost no virtual time, so the run's series are
// byte-identical whichever observers ride along.
func ladderPoint(p cluster.Params, n int, mode ServerMode, pr prober, obs cluster.Observers) (*ladderRun, error) {
	tp := scaleParams(p, n)
	if mode == ServerSharded {
		applyShardedParams(&tp, n)
	}
	ses := obs.Open()
	ses.Attach(&tp)
	entries, err := workload.ParseSWF(strings.NewReader(scaleWorkloadSWF(n, n*JobsPerCN, tp.CoresPerNode, p.Seed)), tp.CoresPerNode)
	if err != nil {
		return nil, err
	}
	run := &ladderRun{params: tp, jobs: len(entries), probers: 1, reg: ses.Registry}
	if pr.count != nil {
		run.probers = pr.count(n)
	}

	s := sim.Acquire()
	defer s.Release()
	c := cluster.New(s, tp)
	var prom strings.Builder
	var bodyErr error
	ready := make([]*signal, run.probers)
	for i := range ready {
		ready[i] = newSignal(s, fmt.Sprintf("%s-ready-%d", pr.name, i))
	}
	goahead := newSignal(s, pr.name+"-go")
	runErr := s.Run(func() {
		defer c.Close()
		ses.Start(s)
		c.Start()
		client := c.Client("front")

		ids := make([]string, 0, run.probers)
		for i := 0; i < run.probers; i++ {
			i := i
			name := pr.name
			if pr.count != nil {
				name = fmt.Sprintf("%s-%d", pr.name, i)
			}
			id, err := client.Submit(pbs.JobSpec{
				Name: name, Owner: "exp", Nodes: 1, PPN: 1, ACPN: pr.acpn,
				Walltime: time.Hour,
				Script: func(env *pbs.JobEnv) {
					ac, _, err := dac.Init(env)
					if err != nil {
						return
					}
					defer ac.Finalize()
					ready[i].fire()
					goahead.wait()
					s.Sleep(pr.pace * time.Duration(i) / time.Duration(run.probers))
					for r := 0; r < pr.reqs; r++ {
						clientID, _, err := ac.Get(1)
						if err == nil {
							s.Sleep(pr.hold)
							ac.Free(clientID)
						}
						s.Sleep(pr.pace)
					}
					if i == 0 {
						if st := ac.Stats(); len(st.Gets) > 0 && !st.Gets[0].Rejected {
							run.firstDyn = st.Gets[0].Batch + st.Gets[0].MPI
						}
					}
				},
			})
			if err != nil {
				bodyErr = fmt.Errorf("submit %s: %w", name, err)
				return
			}
			ids = append(ids, id)
		}
		for _, sg := range ready {
			sg.wait()
		}

		traceIDs, err := workload.Replay(s, client, entries)
		if err != nil {
			bodyErr = fmt.Errorf("replay: %w", err)
			return
		}
		goahead.fire()
		for _, id := range append(traceIDs, ids...) {
			client.Wait(id)
		}
		ses.Stop()
		run.makespan = s.Now()
		if c.Sched != nil {
			run.sched = c.Sched.Stats()
		}
		if run.reg != nil {
			bodyErr = telemetry.WriteProm(&prom, run.reg, s.Now())
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	if bodyErr != nil {
		return nil, bodyErr
	}
	run.obs = Observe(n, ses)
	run.obs.Prom = prom.String()
	return run, nil
}

// ladder runs one ladder point per size and maps each through row.
// Each point is an independent simulation with private observers, so
// the points fan out over the trial worker pool; results are reported
// in input order and are byte-identical at any parallelism level.
func ladder[T any](name string, p cluster.Params, sizes []int, mode ServerMode, pr prober, obs cluster.Observers, row func(*ladderRun) T) ([]T, error) {
	out := make([]T, len(sizes))
	err := forEach(len(sizes), func(idx int) error {
		n := sizes[idx]
		if n < 1 {
			return fmt.Errorf("core: %s size %d", name, n)
		}
		run, err := ladderPoint(p, n, mode, pr, obs)
		if err != nil {
			return fmt.Errorf("core: %s n=%d: %w", name, n, err)
		}
		out[idx] = row(run)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
