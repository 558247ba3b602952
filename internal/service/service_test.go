package service_test

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/pbs"
	"repro/internal/service"
	"repro/internal/workload"
)

// testParams is the small serving testbed with the scale ladder's
// cheap cost model, so open-loop rates in the tens of jobs per second
// leave headroom.
func testParams(cns int) cluster.Params {
	p := cluster.Default()
	p.ComputeNodes = cns
	p.Accelerators = 2 * cns
	p.Seed = 42
	p.Maui.CycleInterval = 250 * time.Millisecond
	p.Maui.CycleOverhead = 10 * time.Millisecond
	p.Maui.PerJobCost = 200 * time.Microsecond
	p.Maui.DynPerReqCost = time.Millisecond
	p.Server.Processing = time.Millisecond
	return p
}

func shortClasses() []workload.Class {
	return []workload.Class{
		{Name: "s", Weight: 3, Nodes: 1, PPN: 1, MinRun: 20 * time.Millisecond, MaxRun: 80 * time.Millisecond},
		{Name: "w", Weight: 1, Nodes: 1, PPN: 2, MinRun: 30 * time.Millisecond, MaxRun: 120 * time.Millisecond},
	}
}

func serveOnce(t *testing.T, jobs int, aud *audit.Recorder) service.Report {
	t.Helper()
	p := testParams(4)
	p.Audit = aud
	p.Server.RetainCompleted, p.Server.AcctRing = 32, 64
	src, err := workload.NewArrivals(workload.ArrivalConfig{
		Rate: 40, Seed: 7, MaxJobs: jobs, Classes: shortClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := service.Run(service.Config{Cluster: p, Source: src, ScrapeInterval: time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestServeCompletesStream(t *testing.T) {
	rep := serveOnce(t, 300, nil)
	if rep.Submitted != 300 || rep.Completed != 300 {
		t.Fatalf("submitted %d completed %d, want 300/300", rep.Submitted, rep.Completed)
	}
	if rep.Stats.Queued != 0 || rep.Stats.Running != 0 {
		t.Fatalf("drained with queued=%d running=%d", rep.Stats.Queued, rep.Stats.Running)
	}
	if rep.Makespan <= 0 || rep.Dispatches == 0 {
		t.Fatalf("makespan %v dispatches %d", rep.Makespan, rep.Dispatches)
	}
	if rep.Stats.Batches == 0 || rep.Stats.Batches >= 300 {
		t.Fatalf("admission batches %d: batching broken (want 1 < b < jobs)", rep.Stats.Batches)
	}
	if len(rep.Windows) == 0 || len(rep.Compliance) == 0 {
		t.Fatalf("no telemetry: %d windows %d compliance", len(rep.Windows), len(rep.Compliance))
	}
	if rep.Stats.Recycled == 0 {
		t.Fatal("ledger records never recycled")
	}
	if rep.Records.Purged == 0 || rep.Records.Reused == 0 {
		t.Fatalf("server retention idle: %+v", rep.Records)
	}
}

func TestServeAuditClean(t *testing.T) {
	rec := audit.New(1 << 16)
	rep := serveOnce(t, 200, rec)
	if rep.Completed != 200 {
		t.Fatalf("completed %d", rep.Completed)
	}
	if br := rec.Breaches(); br != 0 {
		t.Fatalf("%d audit breaches during serve", br)
	}
}

func TestServeShardedServer(t *testing.T) {
	p := testParams(4)
	p.Server.Shards = 4
	src, err := workload.NewArrivals(workload.ArrivalConfig{
		Rate: 40, Seed: 7, MaxJobs: 200, Classes: shortClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := audit.New(1 << 16)
	p.Audit = rec
	rep, err := service.Run(service.Config{Cluster: p, Source: src, ScrapeInterval: time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != 200 {
		t.Fatalf("completed %d want 200", rep.Completed)
	}
	if br := rec.Breaches(); br != 0 {
		t.Fatalf("%d audit breaches under sharded server", br)
	}
}

func TestServeHorizonStopsAdmission(t *testing.T) {
	p := testParams(2)
	src, err := workload.NewArrivals(workload.ArrivalConfig{
		Rate: 50, Seed: 3, Classes: shortClasses(), // unbounded source
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := service.Run(service.Config{
		Cluster: p, Source: src, Horizon: 2 * time.Second, ScrapeInterval: time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Submitted == 0 {
		t.Fatal("nothing admitted before the horizon")
	}
	// ~50 jobs/s for 2s: well under 150 even with gap noise.
	if rep.Submitted > 150 {
		t.Fatalf("admitted %d jobs past a 2s horizon at 50 jobs/s", rep.Submitted)
	}
	if rep.Completed != rep.Submitted {
		t.Fatalf("drain incomplete: %d/%d", rep.Completed, rep.Submitted)
	}
}

func TestServeTraceSourceAndQueries(t *testing.T) {
	p := testParams(2)
	entries := []workload.TraceEntry{
		{At: 10 * time.Millisecond, Name: "t0", Owner: "u", Nodes: 1, PPN: 1, Runtime: 40 * time.Millisecond, Walltime: time.Second},
		{At: 20 * time.Millisecond, Name: "t1", Owner: "u", Nodes: 1, PPN: 1, Runtime: 40 * time.Millisecond, Walltime: time.Second},
		{At: 900 * time.Millisecond, Name: "t2", Owner: "u", Nodes: 1, PPN: 1, Runtime: 40 * time.Millisecond, Walltime: time.Second},
	}
	probed := false
	var probeErr error
	cfg := service.Config{
		Cluster:        p,
		Source:         workload.NewTraceSource(entries),
		ScrapeInterval: time.Second,
		Probe: func(inst *service.Instance) {
			s := inst.Cluster().Sim
			s.Sleep(400 * time.Millisecond)
			q := inst.Queue()
			if q.At != s.Now() {
				t.Errorf("snapshot time %v, now %v", q.At, s.Now())
			}
			id, err := inst.Submit(pbs.JobSpec{
				Name: "probe", Owner: "probe", Nodes: 1, PPN: 1, Walltime: time.Second,
				Script: func(env *pbs.JobEnv) { s.Sleep(30 * time.Millisecond) },
			})
			if err != nil {
				probeErr = err
				return
			}
			if st, err := inst.JobStatus(id); err != nil || st.ID != id {
				t.Errorf("JobStatus(%s) = %+v, %v", id, st, err)
			}
			probed = true
		},
	}
	rep, err := service.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if probeErr != nil {
		t.Fatalf("probe submit: %v", probeErr)
	}
	if !probed {
		t.Fatal("probe never ran")
	}
	// 3 trace jobs + 1 probe job.
	if rep.Completed != 4 {
		t.Fatalf("completed %d want 4", rep.Completed)
	}
}

func TestServeObjectivesEvaluated(t *testing.T) {
	rep := serveOnce(t, 100, nil)
	names := map[string]bool{}
	for _, c := range rep.Compliance {
		names[c.Objective.Name] = true
	}
	for _, want := range []string{"dyn-p50", "dyn-p99", "dyn-p999", "cycle-mean", "queue-depth"} {
		if !names[want] {
			t.Errorf("objective %s missing from compliance", want)
		}
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := service.Run(service.Config{Cluster: testParams(1)}); err == nil {
		t.Fatal("Run without Source must fail")
	}
}
