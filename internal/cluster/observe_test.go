package cluster_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/trace"
)

func TestParseObservers(t *testing.T) {
	for in, want := range map[string]cluster.Observers{
		"":                       {},
		"trace":                  {Trace: true},
		"audit, telemetry":       {Telemetry: true, Audit: true},
		"trace,telemetry,audit,": {Trace: true, Telemetry: true, Audit: true},
	} {
		got, err := cluster.ParseObservers(in)
		if err != nil || got != want {
			t.Errorf("ParseObservers(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	if _, err := cluster.ParseObservers("trace,prof"); err == nil || !strings.Contains(err.Error(), `"prof"`) {
		t.Errorf("unknown observer: err = %v", err)
	}
}

// A session holds exactly the observers of its set and attaches them
// through Params; observers outside the set stay nil, every method
// tolerates that, and Attach leaves alone what the caller put on the
// parameter set.
func TestSessionAttachesItsSet(t *testing.T) {
	none := cluster.Observers{}.Open()
	p := cluster.Default()
	none.Attach(&p)
	if p.Tracer != nil || p.Telemetry != nil || p.Audit != nil {
		t.Fatalf("empty set attached observers: %+v", p)
	}
	none.Stop()
	if f := none.File(); f.Kinds() != "nothing" {
		t.Fatalf("empty session captured %s", f.Kinds())
	}

	mine := trace.New()
	p.Tracer = mine
	rec := cluster.Observers{Audit: true}.Open()
	rec.Attach(&p)
	if p.Tracer != mine || p.Telemetry != nil || p.Audit != rec.Recorder {
		t.Fatalf("audit-only session: tracer kept = %v, params %+v", p.Tracer == mine, p)
	}

	all := cluster.Observers{Trace: true, Telemetry: true, Audit: true}.Open()
	all.Attach(&p)
	if p.Tracer != all.Tracer || p.Telemetry != all.Registry || p.Audit != all.Recorder ||
		all.Tracer == nil || all.Registry == nil || all.Recorder == nil {
		t.Fatalf("full set not attached: %+v", p)
	}
	all.Tracer.Start("x", "y").End()
	all.Recorder.Record(audit.KindJob, "pbs", "1", "submit", 0, 0)
	all.Registry.Counter("pbs.submits").Inc()
	// Never started on a clock: there are no windows to cut.
	f := all.File()
	if len(f.Spans) != 1 || len(f.Audit) != 1 || len(f.Windows) != 0 {
		t.Fatalf("captured %s: %+v", f.Kinds(), f.Windows)
	}
}
