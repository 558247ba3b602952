package trace_test

// External test package: exercising the tracer from real simulation
// actors needs repro/internal/sim, which itself imports trace.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestConcurrentActors(t *testing.T) {
	// Many simulation actors emit spans, instants, and counters at
	// once; the tracer must stay consistent (run with -race).
	const actors, spansPer = 8, 25
	tr := trace.New()
	s := sim.New()
	s.SetTracer(tr)
	err := s.Run(func() {
		var mu sync.Mutex
		remaining := actors
		gate := s.NewGate("join")
		for i := 0; i < actors; i++ {
			host := string(rune('a' + i))
			s.Go("actor-"+host, func() {
				for j := 0; j < spansPer; j++ {
					sp := s.Tracer().Start("comp@"+host, "work")
					s.Sleep(time.Millisecond)
					sp.Child("inner").End()
					sp.End()
					s.Tracer().InstantAt("comp@"+host, "tick", s.Now())
				}
				mu.Lock()
				remaining--
				mu.Unlock()
				gate.Broadcast()
			})
		}
		mu.Lock()
		for remaining > 0 {
			gate.Wait(&mu)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	wantEvents := actors * spansPer * 3 // outer + inner + instant
	if len(evs) != wantEvents {
		t.Fatalf("got %d events, want %d", len(evs), wantEvents)
	}
	// Span ids must be unique across actors, and every work span
	// measured its own actor's 1ms sleep.
	ids := make(map[uint64]bool)
	work := 0
	for _, ev := range evs {
		if ev.Kind != trace.KindSpan {
			continue
		}
		if ids[ev.ID] {
			t.Fatalf("duplicate span id %d", ev.ID)
		}
		ids[ev.ID] = true
		if ev.Name == "work" {
			work++
			if ev.Dur != time.Millisecond {
				t.Errorf("work span lasted %v, want 1ms", ev.Dur)
			}
		}
	}
	if work != actors*spansPer {
		t.Fatalf("%d work spans, want %d", work, actors*spansPer)
	}
}

func TestSimTracerDefaultNil(t *testing.T) {
	s := sim.New()
	if s.Tracer() != nil {
		t.Fatal("fresh simulation should have no tracer")
	}
	// Instrumented code paths call through the nil tracer untraced.
	err := s.Run(func() {
		sp := s.Tracer().Start("x", "y")
		s.Sleep(time.Millisecond)
		sp.End()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimSetTracerBindsClock(t *testing.T) {
	s := sim.New()
	tr := trace.New()
	s.SetTracer(tr)
	var dur time.Duration
	err := s.Run(func() {
		sp := tr.Start("x", "y")
		s.Sleep(250 * time.Millisecond)
		sp.End()
		dur = tr.Events()[0].Dur
	})
	if err != nil {
		t.Fatal(err)
	}
	if dur != 250*time.Millisecond {
		t.Fatalf("span dur = %v, want 250ms of virtual time", dur)
	}
}
