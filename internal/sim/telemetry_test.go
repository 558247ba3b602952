package sim

import (
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestKernelTelemetry(t *testing.T) {
	s := New()
	reg := telemetry.New()
	s.SetTelemetry(reg)
	if s.Telemetry() != reg {
		t.Fatal("Telemetry() must return the installed registry")
	}
	if err := s.Run(func() {
		for i := 0; i < 10; i++ {
			s.Sleep(time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.dispatches").Value(); got < 10 {
		t.Errorf("sim.dispatches = %d, want >= 10", got)
	}
	// The queue drains by the final advance.
	if got := reg.Gauge("sim.queue_depth").Value(); got != 0 {
		t.Errorf("sim.queue_depth = %v at halt, want 0", got)
	}
}

// sleepPastPending runs s through one sleep taken in place with a
// callback left queued: with a registry it reads one dispatch and a
// queue depth of 1.
func sleepPastPending(t *testing.T, s *Simulation) {
	t.Helper()
	if err := s.Run(func() {
		s.After(time.Hour, func() {})
		s.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
}

// kernelReadings reads the kernel's two instruments in reg.
func kernelReadings(reg *telemetry.Registry) (dispatches int64, depth float64) {
	return reg.Counter("sim.dispatches").Value(), reg.Gauge("sim.queue_depth").Value()
}

// Removing the registry removes the kernel's instruments with it: a run
// after SetTelemetry(nil) writes nothing to the old registry.
func TestSetTelemetryNilRemoves(t *testing.T) {
	s := New()
	reg := telemetry.New()
	s.SetTelemetry(reg)
	s.SetTelemetry(nil)
	if s.Telemetry() != nil {
		t.Fatal("SetTelemetry(nil) must remove the registry")
	}
	sleepPastPending(t, s)
	if d, q := kernelReadings(reg); d != 0 || q != 0 {
		t.Fatalf("a run after SetTelemetry(nil) wrote sim.dispatches %d, sim.queue_depth %v to the removed registry", d, q)
	}
}

// reset drops the registry and the kernel's instruments: the next run,
// without a registry, leaves the old one's readings as they were.
func TestResetClearsTelemetry(t *testing.T) {
	s := New()
	reg := telemetry.New()
	s.SetTelemetry(reg)
	sleepPastPending(t, s)
	d0, q0 := kernelReadings(reg)
	if d0 != 1 || q0 != 1 {
		t.Fatalf("sim.dispatches %d, sim.queue_depth %v; want 1 and 1", d0, q0)
	}
	s.reset()
	if s.Telemetry() != nil {
		t.Fatal("reset must drop the telemetry registry with the tracer")
	}
	if err := s.Run(func() { s.Sleep(time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	if d, q := kernelReadings(reg); d != d0 || q != q0 {
		t.Fatalf("a run after reset moved the old registry's sim.dispatches %d → %d, sim.queue_depth %v → %v", d0, d, q0, q)
	}
}

// The tracer's ring-buffer drop counter must surface in the telemetry
// registry ("trace.dropped_spans") and match the tracer's own total,
// whichever order the two sinks are installed in.
func TestBridgeTraceDrops(t *testing.T) {
	for _, tracerFirst := range []bool{true, false} {
		s := New()
		tr := trace.New()
		tr.SetLimit(4)
		reg := telemetry.New()
		if tracerFirst {
			s.SetTracer(tr)
			s.SetTelemetry(reg)
		} else {
			s.SetTelemetry(reg)
			s.SetTracer(tr)
		}
		if err := s.Run(func() {
			for i := 0; i < 16; i++ {
				sp := tr.Start("test", "span")
				s.Sleep(time.Millisecond)
				sp.End()
			}
		}); err != nil {
			t.Fatal(err)
		}
		dropped := tr.Dropped()
		if dropped == 0 {
			t.Fatalf("tracerFirst=%v: limit 4 with 16 spans dropped nothing", tracerFirst)
		}
		if got := reg.Counter("trace.dropped_spans").Value(); got != dropped {
			t.Errorf("tracerFirst=%v: trace.dropped_spans = %d, tracer dropped %d", tracerFirst, got, dropped)
		}
	}
}
