package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/workload"
)

var allObservers = cluster.Observers{Trace: true, Telemetry: true, Audit: true}

// Every trial of a paper figure runs under a session of its own, so it
// has one clock: scrape windows and digest rounds of its own, and spans
// on its own time. Merged per point, span ids and audit sequence
// numbers stay unique, and the ac.get spans' batch / mpi children are
// Figure 7(b)'s two columns at any parallelism.
func TestPaperFigureObservesEachTrialOnItsOwn(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	const trials = 3
	pts, err := Fig7b(cluster.Default(), 2, trials, allObservers)
	if err != nil {
		t.Fatalf("Fig7b: %v", err)
	}
	var batch, mpi, wantBatch, wantMPI time.Duration
	var granted float64
	for _, pt := range pts {
		seen := pt.Obs
		if seen.Breaches != 0 || seen.Checks == 0 {
			t.Fatalf("y=%d: %d breaches over %d checks", pt.Accelerators, seen.Breaches, seen.Checks)
		}
		if len(seen.Windows) < trials || seen.Rounds < trials || len(finalDigests(seen)) != trials {
			t.Fatalf("y=%d captured %s in %d digest rounds, want scrape windows and digest rounds from each of %d trials",
				pt.Accelerators, seen.Kinds(), seen.Rounds, trials)
		}
		ids := map[uint64]bool{}
		for _, e := range seen.Spans {
			if e.ID != 0 && ids[e.ID] {
				t.Fatalf("y=%d: span id %d twice", pt.Accelerators, e.ID)
			}
			ids[e.ID] = true
			if e.Kind != trace.KindSpan || !strings.HasPrefix(e.Track, "dac@") {
				continue
			}
			switch e.Name {
			case "batch":
				batch += e.Dur
			case "mpi":
				mpi += e.Dur
			}
		}
		for i, e := range seen.Audit {
			if e.Seq != uint64(i) {
				t.Fatalf("y=%d: audit event %d has seq %d", pt.Accelerators, i, e.Seq)
			}
		}
		for _, w := range seen.Windows {
			for _, r := range w.Rows {
				if r.Name == "pbs.dyn_granted" {
					granted += r.Delta
				}
			}
		}
		// Jitter is off, so every trial of a point takes its mean.
		wantBatch += trials * pt.Batch
		wantMPI += trials * pt.MPI
	}
	if batch != wantBatch || mpi != wantMPI {
		t.Errorf("span time batch=%v mpi=%v, figure columns say %v / %v", batch, mpi, wantBatch, wantMPI)
	}
	if granted != float64(len(pts)*trials) {
		t.Errorf("scrape windows counted %v dynamic grants, want %d", granted, len(pts)*trials)
	}
}

// finalDigests splits a point's merged recording where virtual time
// starts over (every trial begins at zero) and returns each trial's
// last digest per provider.
func finalDigests(o Observed) []map[string]uint64 {
	var out []map[string]uint64
	last := time.Duration(-1)
	for _, e := range o.Audit {
		if e.VT < last || out == nil {
			out = append(out, map[string]uint64{})
		}
		last = e.VT
		if e.Kind == audit.KindDigest {
			out[len(out)-1][e.Subj] = uint64(e.A)
		}
	}
	return out
}

// Without jitter the simulation is deterministic, so the trials of a
// point coincide (EXPERIMENTS.md): every trial ends in the same state.
// With jitter each trial's seed shows, so the check is not vacuous.
func TestRepeatedTrialsCoincideWithoutJitter(t *testing.T) {
	for _, jitter := range []float64{0, 0.1} {
		p := cluster.Default()
		p.LatencyJitter = jitter
		pts, err := Fig7b(p, 2, 3, cluster.Observers{Audit: true})
		if err != nil {
			t.Fatalf("Fig7b jitter=%v: %v", jitter, err)
		}
		differ := false
		for _, pt := range pts {
			finals := finalDigests(pt.Obs)
			if len(finals) != 3 || len(finals[0]) == 0 {
				t.Fatalf("jitter=%v y=%d: %d trials with final digests, want 3", jitter, pt.Accelerators, len(finals))
			}
			for _, f := range finals[1:] {
				if !reflect.DeepEqual(f, finals[0]) {
					differ = true
				}
			}
		}
		if differ != (jitter != 0) {
			t.Errorf("jitter=%v: trials differ = %v", jitter, differ)
		}
	}
}

// An observer the caller put on Params rides through the ladder
// unless the observer set brings its own of that kind. It takes no
// lock, so the points that share it run one at a time at any
// parallelism (under -race an overlap reports).
func TestLadderKeepsCallerObservers(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	p := cluster.Default()
	tr := trace.New()
	rec := audit.New(AuditCapacity)
	p.Tracer, p.Audit = tr, rec
	pts, err := Scale(p, []int{8, 8}, ServerFaithful, cluster.Observers{Audit: true})
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	if len(tr.Events()) == 0 {
		t.Error("the caller's tracer saw nothing")
	}
	if len(pts[0].Obs.Spans) != 0 {
		t.Error("the point captured spans it did not ask for")
	}
	if rec.Len() != 0 || len(pts[0].Obs.Audit) == 0 {
		t.Errorf("caller's recorder holds %d events, the point's %d; the set's own recorder should have replaced it",
			rec.Len(), len(pts[0].Obs.Audit))
	}

	// The resident service instance attaches the same way (the
	// million-job soak audits through a recorder on Params).
	rec = audit.New(AuditCapacity)
	p.Audit = rec
	if _, err := Serve(p, []int{8, 8}, ServerFaithful, workload.ArrivalConfig{}, 2*time.Second, cluster.Observers{}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if rec.Checks() == 0 || rec.Breaches() != 0 {
		t.Errorf("caller's recorder under Serve: %d checks, %d breaches", rec.Checks(), rec.Breaches())
	}
}
