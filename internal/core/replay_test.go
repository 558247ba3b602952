package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/maui"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// replayRow is one scenario of the replay corpus. run builds the
// scenario from scratch with trace, telemetry and audit on and returns
// what a reader of the run compares: capture lines, rendered tables and
// CSV, logs. parallel rows fan out over the trial worker pool, so they
// run once at -parallel 1 and once at 4; the others run twice.
type replayRow struct {
	name     string
	parallel bool
	run      func(t *testing.T) []byte
}

// TestReplayCorpus is the determinism check: same seed, same bytes.
// Every row runs twice and its two outputs must be equal; a mismatch
// names the row and the first line that differs. A scenario whose
// output can vary (a map range, a spawn order, a same-instant race)
// gets a row here.
func TestReplayCorpus(t *testing.T) {
	defer SetParallelism(Parallelism())
	for _, row := range replayCorpus {
		t.Run(row.name, func(t *testing.T) {
			levels := []int{0, 0}
			if row.parallel {
				levels = []int{1, 4}
			}
			var first []byte
			for i, par := range levels {
				SetParallelism(par)
				out := row.run(t)
				if t.Failed() {
					return
				}
				if i == 0 {
					if len(out) == 0 {
						t.Fatal("the scenario wrote nothing to compare")
					}
					first = out
					continue
				}
				if !bytes.Equal(first, out) {
					line, a, b := firstDiff(first, out)
					t.Fatalf("%s: run 2 (-parallel %d) differs from run 1 (-parallel %d) at line %d:\nrun 1: %s\nrun 2: %s",
						row.name, par, levels[0], line, a, b)
				}
			}
		})
	}
}

// firstDiff returns the number of the first line where two different
// outputs differ and both texts of it ("" past the end of the shorter).
func firstDiff(a, b []byte) (line int, la, lb string) {
	as, bs := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for line < len(as) && line < len(bs) && as[line] == bs[line] {
		line++
	}
	if line < len(as) {
		la = as[line]
	}
	if line < len(bs) {
		lb = bs[line]
	}
	return line + 1, la, lb
}

// replay collects one run's output.
type replay struct {
	t *testing.T
	bytes.Buffer
}

func newReplay(t *testing.T) *replay { return &replay{t: t} }

// table writes a table as dacsim prints it, as text and as CSV.
func (r *replay) table(tb *metrics.Table) {
	if err := tb.Render(r); err != nil {
		r.t.Fatal(err)
	}
	if err := tb.CSV(r); err != nil {
		r.t.Fatal(err)
	}
}

// seen writes what one run's observers saw: its capture lines and its
// Prometheus page.
func (r *replay) seen(o Observed) {
	if err := capture.Write(r, &o.File); err != nil {
		r.t.Fatal(err)
	}
	r.WriteString(o.Prom)
}

// json writes v as one JSON line.
func (r *replay) json(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		r.t.Fatal(err)
	}
	r.Write(append(b, '\n'))
}

// check fails the run on err.
func (r *replay) check(err error) {
	if err != nil {
		r.t.Helper()
		r.t.Fatal(err)
	}
}

// figureRow runs a paper figure at one trial and writes its table and
// the merged capture of its points.
func figureRow[P any](name string, fig func(p cluster.Params) ([]P, error), table func([]P) *metrics.Table, obs func(*P) Observed) replayRow {
	return replayRow{name: name, parallel: true, run: func(t *testing.T) []byte {
		r := newReplay(t)
		pts, err := fig(cluster.Default())
		r.check(err)
		r.table(table(pts))
		runs := make([]Observed, len(pts))
		for i := range pts {
			runs[i] = obs(&pts[i])
		}
		r.seen(Merge(runs))
		return r.Bytes()
	}}
}

// pbsParams is a small testbed on cluster.Params with the pbs tests'
// fault-tolerance settings: fast cycles and joins, heartbeats every
// 40 ms and a node declared down after 200 ms of silence.
func pbsParams(cns, acs int) cluster.Params {
	p := cluster.Default()
	p.ComputeNodes, p.Accelerators = cns, acs
	p.Server = pbs.ServerParams{Processing: time.Millisecond, DeadAfter: 200 * time.Millisecond}
	p.Maui.CycleInterval = 50 * time.Millisecond
	p.Maui.CycleOverhead = 5 * time.Millisecond
	p.Maui.PerJobCost = 2 * time.Millisecond
	p.Maui.DynPerReqCost = 2 * time.Millisecond
	p.Mom = pbs.MomParams{JoinCost: time.Millisecond, DynJoinCost: 2 * time.Millisecond,
		StartCost: time.Millisecond, HeartbeatEvery: 40 * time.Millisecond}
	return p
}

// clusterRun runs fn on a testbed built from p with every observer on
// and writes the capture, the Prometheus page, the server's error log
// and its accounting log. fn may write what it observed to r. The run
// must record no invariant breach and drop no audit event.
func clusterRun(t *testing.T, p cluster.Params, fn func(r *replay, c *cluster.Cluster, client *pbs.Client)) (*replay, Observed) {
	r := newReplay(t)
	ses := allObservers.Open()
	ses.Attach(&p)
	var prom strings.Builder
	var server *pbs.Server
	r.check(cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		ses.Start(c.Sim)
		fn(r, c, client)
		ses.Stop()
		server = c.Server
		r.check(telemetry.WriteProm(&prom, ses.Registry, c.Sim.Now()))
	}))
	seen := Observe(0, ses)
	seen.Prom = prom.String()
	if seen.Breaches != 0 || seen.Dropped != 0 {
		t.Errorf("%d invariant breaches, %d audit events dropped", seen.Breaches, seen.Dropped)
	}
	r.seen(seen)
	for _, e := range server.Errors() {
		r.WriteString(e + "\n")
	}
	r.check(pbs.WriteAccountingLog(r, server.AccountingLog()))
	return r, seen
}

// submitAll submits specs, waits for each in order and writes its
// state and timestamps.
func submitAll(r *replay, client *pbs.Client, specs ...pbs.JobSpec) {
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		id, err := client.Submit(spec)
		if err != nil {
			r.t.Errorf("Submit %s: %v", spec.Name, err)
			return
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		info, err := client.Wait(id)
		if err != nil {
			r.t.Errorf("Wait(%s): %v", id, err)
			return
		}
		fmt.Fprintf(r, "%s %v %v %v %v %v %v\n", id, info.State, info.Hosts, info.SubmittedAt, info.AllocatedAt, info.StartedAt, info.CompletedAt)
	}
}

// subjects lists, in recording order, the subjects of the audit events
// of one kind.
func subjects(o Observed, kind audit.Kind) string {
	var out []string
	for _, e := range o.Audit {
		if e.Kind == kind {
			out = append(out, e.Subj)
		}
	}
	return strings.Join(out, " ")
}

// idleScheduler takes the scheduler's place and never places a job, so
// a row can send the server its own AllocCmd.
type idleScheduler struct{}

func (idleScheduler) Start()           {}
func (idleScheduler) Endpoint() string { return "sched" }

var replayCorpus = []replayRow{
	figureRow("fig7a", func(p cluster.Params) ([]Fig7aPoint, error) { return Fig7a(p, 6, 1, allObservers) },
		Fig7aTable, func(pt *Fig7aPoint) Observed { return pt.Obs }),
	figureRow("fig7b", func(p cluster.Params) ([]Fig7bPoint, error) { return Fig7b(p, 6, 1, allObservers) },
		Fig7bTable, func(pt *Fig7bPoint) Observed { return pt.Obs }),
	figureRow("fig8", func(p cluster.Params) ([]Fig8Point, error) { return Fig8(p, []int{0, 16, 20}, 1, allObservers) },
		Fig8Table, func(pt *Fig8Point) Observed { return pt.Obs }),
	figureRow("fig9", func(p cluster.Params) ([]Fig9Point, error) { return Fig9(p, 1, allObservers) },
		Fig9Table, func(pt *Fig9Point) Observed { return pt.Obs }),

	// The SWF ladder at 8 and 64 compute nodes, on both servers.
	{name: "scale-faithful-64", parallel: true, run: func(t *testing.T) []byte {
		return scaleRow(t, ServerFaithful, ScaleTable)
	}},
	{name: "scale-sharded-64", parallel: true, run: func(t *testing.T) []byte {
		return scaleRow(t, ServerSharded, ScaleShardedTable)
	}},
	{name: "slo", parallel: true, run: func(t *testing.T) []byte {
		r := newReplay(t)
		pts, err := SLO(cluster.Default(), []int{8, 16}, allObservers)
		r.check(err)
		r.table(SLOTable(pts))
		r.table(SLOComplianceTable(pts))
		for _, pt := range pts {
			r.seen(pt.Obs)
		}
		return r.Bytes()
	}},
	{name: "breakdown", parallel: true, run: func(t *testing.T) []byte {
		r := newReplay(t)
		pts, err := Breakdown(cluster.Default(), []int{8, 16}, ServerFaithful, allObservers)
		r.check(err)
		r.table(BreakdownTable(pts))
		r.table(DynBreakdownTable(pts))
		for _, pt := range pts {
			r.seen(pt.Obs)
		}
		return r.Bytes()
	}},

	// The serve figure: one resident instance per size.
	{name: "serve", parallel: true, run: func(t *testing.T) []byte {
		r := newReplay(t)
		pts, err := Serve(cluster.Default(), []int{8, 16}, ServerFaithful, workload.ArrivalConfig{}, 4*time.Second, allObservers)
		r.check(err)
		r.table(ServeTable(pts))
		r.table(ServeComplianceTable(pts))
		for _, pt := range pts {
			r.seen(pt.Obs)
			pt.Obs = Observed{}
			r.json(pt)
		}
		return r.Bytes()
	}},
	{name: "serve-dynamic-mix", run: serveDynamicMix},

	// Heartbeats on, a host down and up again, and a server restart
	// with a job queued and a dynamic request in flight.
	{name: "heartbeats-down-restart", run: func(t *testing.T) []byte {
		p := pbsParams(8, 16)
		p.Mom.HeartbeatEvery = 20 * time.Millisecond
		p.Server.DeadAfter = 100 * time.Millisecond
		r, _ := clusterRun(t, p, func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			s := c.Sim
			var dynErr error
			dyn, err := client.Submit(pbs.JobSpec{Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Minute,
				Script: func(env *pbs.JobEnv) {
					cl := pbs.NewClient(c.Net, env.Host, env.ServerEP)
					defer cl.Close()
					s.Sleep(300 * time.Millisecond)
					_, dynErr = cl.DynGet(env.JobID, env.Host, 2)
				}})
			r.check(err)
			c.Net.SetHostDown("ac3", true)
			c.Net.SetHostDown("cn5", true)
			s.Sleep(250 * time.Millisecond)
			nodes, err := client.Nodes()
			r.check(err)
			r.json(nodes)
			c.Net.SetHostDown("ac3", false)
			c.Net.SetHostDown("cn5", false)
			s.Sleep(100 * time.Millisecond)
			queued, err := client.Submit(pbs.JobSpec{Name: "wide", Owner: "v", Nodes: 8, PPN: 8, Walltime: time.Second,
				Script: func(env *pbs.JobEnv) { s.Sleep(20 * time.Millisecond) }})
			r.check(err)
			s.Sleep(52 * time.Millisecond) // the dynamic request is at the server
			snap := c.Server.Checkpoint()
			c.Server.Stop()
			s.Sleep(10 * time.Millisecond)
			replacement := pbs.NewServer(c.Net, p.Server)
			replacement.SetScheduler(c.Scheduler.Endpoint())
			r.check(replacement.Restore(snap))
			replacement.Start()
			for _, id := range []string{dyn, queued} {
				info, err := client.Wait(id)
				r.check(err)
				fmt.Fprintf(r, "%s %v %v %v\n", id, info.State, info.Hosts, info.CompletedAt)
			}
			fmt.Fprintf(r, "dyn get: %v\n", dynErr)
			nodes, err = client.Nodes()
			r.check(err)
			r.json(nodes)
			for _, e := range replacement.Errors() {
				r.WriteString(e + "\n")
			}
		})
		return r.Bytes()
	}},

	// The malleable extension's expand/shrink traffic (paper Section V;
	// the DMR pattern): two jobs grow and shrink their compute-node set
	// while a third asks for more than is free and is refused.
	{name: "malleable", run: func(t *testing.T) []byte {
		r, _ := clusterRun(t, pbsParams(6, 0), func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			s := c.Sim
			malleable := func(name string, grow []int) pbs.JobSpec {
				return pbs.JobSpec{Name: name, Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Minute,
					Script: func(env *pbs.JobEnv) {
						cl := pbs.NewClient(c.Net, env.Host, env.ServerEP)
						defer cl.Close()
						for _, n := range grow {
							grant, err := cl.DynGetNodes(env.JobID, env.Host, n, 4)
							fmt.Fprintf(r, "%s +%d: %v %v\n", env.JobID, n, grant.Hosts, err)
							if err != nil {
								continue
							}
							s.Sleep(30 * time.Millisecond)
							fmt.Fprintf(r, "%s -%d: %v\n", env.JobID, n, cl.DynFree(env.JobID, grant.ClientID))
						}
					}}
			}
			submitAll(r, client, malleable("grow", []int{2, 1, 2}), malleable("shrink", []int{1, 2}),
				malleable("greedy", []int{9}))
		})
		return r.Bytes()
	}},

	// Host by host, the server commits, releases and names a missing
	// node in placement order (DESIGN.md §10).
	{name: "multinode-accelerator-job", run: func(t *testing.T) []byte {
		r, seen := clusterRun(t, pbsParams(4, 8), func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			submitAll(r, client, pbs.JobSpec{Name: "wide", Owner: "u", Nodes: 4, PPN: 1, ACPN: 2, Walltime: time.Second,
				Script: func(env *pbs.JobEnv) { c.Sim.Sleep(time.Duration(env.Rank+1) * 10 * time.Millisecond) }})
		})
		want := "cn0 cn1 cn2 cn3 ac0 ac1 ac2 ac3 ac4 ac5 ac6 ac7"
		if got := subjects(seen, audit.KindAlloc); got != want {
			t.Errorf("committed in order %s, want %s", got, want)
		}
		if got := subjects(seen, audit.KindRelease); got != want {
			t.Errorf("released in order %s, want %s", got, want)
		}
		return r.Bytes()
	}},
	{name: "job-ending-with-live-dynamic-sets", run: func(t *testing.T) []byte {
		r, seen := clusterRun(t, pbsParams(1, 6), func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			submitAll(r, client, pbs.JobSpec{Name: "keeper", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
				Script: func(env *pbs.JobEnv) {
					cl := pbs.NewClient(c.Net, env.Host, env.ServerEP)
					defer cl.Close()
					for _, n := range []int{2, 3} { // never freed: the job's end releases them
						if _, err := cl.DynGet(env.JobID, env.Host, n); err != nil {
							t.Errorf("DynGet: %v", err)
						}
					}
				}})
		})
		if got, want := subjects(seen, audit.KindRelease), "cn0 ac0 ac1 ac2 ac3 ac4"; got != want {
			t.Errorf("released in order %s, want %s (sets by ascending client id)", got, want)
		}
		return r.Bytes()
	}},
	{name: "refused-alloc-cmd", run: func(t *testing.T) []byte {
		p := pbsParams(2, 4)
		p.MakeScheduler = func(net *netsim.Network, _ string) cluster.SchedulerDaemon {
			net.Endpoint(idleScheduler{}.Endpoint())
			return idleScheduler{}
		}
		r, _ := clusterRun(t, p, func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			id, err := client.Submit(pbs.JobSpec{Name: "j", Owner: "u", Nodes: 2, PPN: 1, ACPN: 2})
			r.check(err)
			cmd := &pbs.AllocCmd{JobID: id, Hosts: []string{"cn0", "cn1"},
				AccHosts: [][]string{{"ac0", "gone1"}, {"gone2", "gone3"}}}
			r.check(c.Net.Endpoint("sched").Send(pbs.ServerEndpoint, "pbs", cmd, 0))
			c.Sim.Sleep(10 * time.Millisecond)
			info, err := client.Stat(id)
			r.check(err)
			if info.State != pbs.JobQueued || len(info.Hosts) != 0 {
				t.Errorf("after a refused AllocCmd: %+v", info)
			}
			errs := c.Server.Errors()
			if len(errs) != 1 || !strings.HasSuffix(errs[0], "accelerator gone1 unavailable") {
				t.Errorf("server errors %q, want one naming gone1", errs)
			}
		})
		return r.Bytes()
	}},

	// The sharded server with pipelined DYNJOINs, and Maui's walk over
	// four partitions.
	{name: "sharded-server", run: func(t *testing.T) []byte {
		p := pbsParams(4, 2)
		p.Server.Shards = 4
		p.Maui.Partitions = 2
		p.Mom.DynJoinCost = 5 * time.Millisecond
		r, _ := clusterRun(t, p, func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			specs := make([]pbs.JobSpec, 8)
			for i := range specs {
				specs[i] = pbs.JobSpec{Name: "det", Owner: "alice", Nodes: 1, PPN: 2, Walltime: time.Second,
					Script: func(env *pbs.JobEnv) { c.Sim.Sleep(15 * time.Millisecond) }}
			}
			submitAll(r, client, specs...)
		})
		return r.Bytes()
	}},
	{name: "partitioned-cycle", run: func(t *testing.T) []byte {
		p := pbsParams(8, 2)
		p.Maui = maui.DefaultParams()
		p.Maui.CycleInterval = 20 * time.Millisecond
		p.Maui.CycleOverhead = time.Millisecond
		p.Maui.PerJobCost = time.Millisecond
		p.Maui.DynPerReqCost = time.Millisecond
		p.Maui.Partitions = 4
		r, _ := clusterRun(t, p, func(r *replay, c *cluster.Cluster, client *pbs.Client) {
			specs := make([]pbs.JobSpec, 10)
			for i := range specs {
				specs[i] = pbs.JobSpec{Name: "det", Owner: "alice", Nodes: 1 + i%2, PPN: 4, Walltime: time.Second,
					Script: func(env *pbs.JobEnv) { c.Sim.Sleep(15 * time.Millisecond) }}
			}
			submitAll(r, client, specs...)
		})
		return r.Bytes()
	}},

	// The seven ablations with dacsim's arguments.
	{name: "ablations", parallel: true, run: func(t *testing.T) []byte {
		r := newReplay(t)
		p := cluster.Default()
		tb := &metrics.Table{Title: "ablations", Headers: []string{"ablation", "result"}}
		add := func(name string, res any, err error) {
			r.check(err)
			tb.AddRow(name, fmt.Sprintf("%+v", res))
		}
		dp, err := AblationDynPriority(p, 16, 1)
		add("dyn-priority", dp, err)
		cg, err := AblationCollectiveGet(p, 3, 1)
		add("collective", cg, err)
		dv, err := AblationDynamicVsStatic(p, 4)
		add("dynamic-vs-static", dv, err)
		bf, err := AblationBackfill(p, 16, 6)
		add("backfill", bf, err)
		sp, err := AblationSchedulerPortability(p, 12, 6)
		add("scheduler", sp, err)
		db, err := AblationDoubleBuffer(p, 8)
		add("double-buffer", db, err)
		pa, err := AblationPartialAlloc(p)
		add("partial", pa, err)
		r.table(tb)
		return r.Bytes()
	}},
}

// scaleRow runs the SWF ladder at 8 and 64 compute nodes and writes its
// table and each point's capture.
func scaleRow(t *testing.T, mode ServerMode, table func([]ScalePoint) *metrics.Table) []byte {
	r := newReplay(t)
	pts, err := Scale(cluster.Default(), []int{8, 64}, mode, allObservers)
	r.check(err)
	r.table(table(pts))
	for _, pt := range pts {
		r.seen(pt.Obs)
	}
	return r.Bytes()
}

// serveDynamicMix is the service soak's dynamic mix at a small size: an
// open-loop stream of which a third of the jobs call AC_Get/AC_Free
// (half of those with a static accelerator too), served with a small
// retention window and accounting ring. It writes the report, the
// capture of the trace and audit sessions and the scrape series.
func serveDynamicMix(t *testing.T) []byte {
	r := newReplay(t)
	p := cluster.Default()
	p.ComputeNodes, p.Accelerators, p.Seed = 8, 16, 42
	p.Maui.CycleInterval = 250 * time.Millisecond
	p.Maui.CycleOverhead = 10 * time.Millisecond
	p.Maui.PerJobCost = 200 * time.Microsecond
	p.Maui.DynPerReqCost = time.Millisecond
	p.Server.Processing = time.Millisecond
	obs := allObservers
	obs.Telemetry = false // the instance brings its own
	ses := obs.Open()
	ses.Attach(&p)
	src, err := workload.NewArrivals(workload.ArrivalConfig{Rate: 20, Seed: 29, MaxJobs: 120, Classes: []workload.Class{
		{Name: "s", Weight: 3, Nodes: 1, PPN: 1, MinRun: 20 * time.Millisecond, MaxRun: 80 * time.Millisecond},
		{Name: "w", Weight: 1, Nodes: 1, PPN: 2, MinRun: 30 * time.Millisecond, MaxRun: 120 * time.Millisecond},
		{Name: "dyn", Weight: 1, Nodes: 1, PPN: 1, MinRun: 300 * time.Millisecond, MaxRun: 600 * time.Millisecond,
			DynACs: 2, DynHold: 100 * time.Millisecond},
		{Name: "static+dyn", Weight: 1, Nodes: 1, PPN: 1, ACPN: 1, MinRun: 300 * time.Millisecond, MaxRun: 600 * time.Millisecond,
			DynACs: 1, DynHold: 100 * time.Millisecond},
	}})
	r.check(err)
	rep, err := service.Run(service.Config{
		Cluster:         p,
		Source:          src,
		AdmitTick:       50 * time.Millisecond,
		ScrapeInterval:  time.Second,
		RetainCompleted: 32,
		AcctRing:        64,
	})
	r.check(err)
	if rep.Completed != 120 {
		t.Errorf("completed %d of 120 jobs", rep.Completed)
	}
	seen := Observe(8, ses)
	seen.Windows = rep.Windows
	if seen.Breaches != 0 {
		t.Errorf("%d invariant breaches", seen.Breaches)
	}
	r.seen(seen)
	r.json(rep)
	return r.Bytes()
}
