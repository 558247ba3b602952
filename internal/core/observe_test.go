package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/trace"
)

// The paper figures run many trials and take no observer set; a
// session the caller attaches to the parameter set every trial
// derives from sees all of them (dacsim -observe on -fig 7a..9). The
// ac.get spans' batch / mpi children are Figure 7(b)'s two columns.
func TestPaperFigureUnderSharedSession(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	const trials = 2
	p := cluster.Default()
	ses := cluster.Observers{Trace: true, Telemetry: true, Audit: true}.Open()
	ses.Attach(&p)
	pts, err := Fig7b(p, 2, trials)
	if err != nil {
		t.Fatalf("Fig7b: %v", err)
	}
	seen := Observe(0, ses)
	if seen.Breaches != 0 || seen.Checks == 0 {
		t.Fatalf("shared recorder: %d breaches over %d checks", seen.Breaches, seen.Checks)
	}
	if len(seen.Spans) == 0 || len(seen.Audit) == 0 || len(seen.Windows) != 0 {
		t.Fatalf("shared session captured %s, want spans and audit events (no clock, so no scrape windows)", seen.Kinds())
	}
	if n := ses.Registry.Counter("pbs.dyn_granted").Value(); n != int64(len(pts)*trials) {
		t.Errorf("shared registry counted %d dynamic grants, want %d", n, len(pts)*trials)
	}
	// Jitter is off, so every trial of a point takes its mean.
	var batch, mpi, wantBatch, wantMPI time.Duration
	for _, e := range seen.Spans {
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
	for _, pt := range pts {
		wantBatch += trials * pt.Batch
		wantMPI += trials * pt.MPI
	}
	if batch != wantBatch || mpi != wantMPI {
		t.Errorf("span time batch=%v mpi=%v, figure columns say %v / %v", batch, mpi, wantBatch, wantMPI)
	}
}

// Two Figure 7(b) runs under one shared trace, telemetry and audit
// session write byte-equal captures: AC_Free must send its exit
// requests in one order, or same-instant deliveries from one process
// trade span ids run to run.
func TestFig7bCaptureIsTheSameEveryRun(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	run := func() []byte {
		p := cluster.Default()
		ses := cluster.Observers{Trace: true, Telemetry: true, Audit: true}.Open()
		ses.Attach(&p)
		if _, err := Fig7b(p, 4, 2); err != nil {
			t.Fatalf("Fig7b: %v", err)
		}
		f := Observe(0, ses).File
		var buf bytes.Buffer
		if err := capture.Write(&buf, &f); err != nil {
			t.Fatalf("capture: %v", err)
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		a, b := strings.Split(string(first), "\n"), strings.Split(string(second), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("captures differ at line %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("captures differ in length: %d vs %d lines", len(a), len(b))
	}
}

// An observer the caller put on Params rides through the ladder
// unless the observer set brings its own of that kind.
func TestLadderKeepsCallerObservers(t *testing.T) {
	p := cluster.Default()
	tr := trace.New()
	rec := audit.New(AuditCapacity)
	p.Tracer, p.Audit = tr, rec
	pts, err := Scale(p, []int{8}, ServerFaithful, cluster.Observers{Audit: true})
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
	if _, err := Serve(p, []int{8}, ServerFaithful, 0, 2*time.Second, cluster.Observers{}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if rec.Checks() == 0 || rec.Breaches() != 0 {
		t.Errorf("caller's recorder under Serve: %d checks, %d breaches", rec.Checks(), rec.Breaches())
	}
}
