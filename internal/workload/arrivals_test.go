package workload

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// Changing the submission rate must not reshuffle job shapes: the k-th
// job of a seed is identical at every rate, because shapes come from a
// stream independent of the gap stream.
func TestArrivalsShapesPinnedAcrossRates(t *testing.T) {
	draw := func(rate float64) []TraceEntry {
		a, err := NewArrivals(ArrivalConfig{Rate: rate, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]TraceEntry, 0, 200)
		for i := 0; i < 200; i++ {
			e, ok := a.Next()
			if !ok {
				t.Fatalf("stream dried at %d", i)
			}
			out = append(out, e)
		}
		return out
	}
	slow, fast := draw(10), draw(1000)
	for i := range slow {
		s, f := slow[i], fast[i]
		if s.Name != f.Name || s.Nodes != f.Nodes || s.PPN != f.PPN ||
			s.Runtime != f.Runtime || s.DynACs != f.DynACs || s.DynHold != f.DynHold {
			t.Fatalf("job %d reshuffled across rates:\n  rate=10:   %+v\n  rate=1000: %+v", i, s, f)
		}
		if s.At <= f.At {
			t.Fatalf("job %d: slow stream not slower (%v vs %v)", i, s.At, f.At)
		}
	}
}

// The same holds across arrival processes: poisson, uniform, and burst
// streams with one seed emit the same job sequence, only spaced
// differently.
func TestArrivalsShapesPinnedAcrossProcesses(t *testing.T) {
	draw := func(p ArrivalProcess) []TraceEntry {
		a, err := NewArrivals(ArrivalConfig{Process: p, Rate: 100, Seed: 5, MaxJobs: 150})
		if err != nil {
			t.Fatal(err)
		}
		var out []TraceEntry
		for {
			e, ok := a.Next()
			if !ok {
				break
			}
			out = append(out, e)
		}
		return out
	}
	pois, unif, burst := draw(ArrivalPoisson), draw(ArrivalUniform), draw(ArrivalBurst)
	if len(pois) != 150 || len(unif) != 150 || len(burst) != 150 {
		t.Fatalf("lengths %d/%d/%d", len(pois), len(unif), len(burst))
	}
	for i := range pois {
		if pois[i].Name != unif[i].Name || pois[i].Runtime != unif[i].Runtime ||
			pois[i].Name != burst[i].Name || pois[i].Runtime != burst[i].Runtime {
			t.Fatalf("job %d differs across processes", i)
		}
	}
}

// Generator shares the same split-stream discipline: shapes are pinned
// when only MeanInterarrival changes.
func TestGeneratorShapesPinnedAcrossRates(t *testing.T) {
	s := sim.New()
	g1 := NewGenerator(s, 7, 10*time.Millisecond, DefaultClasses())
	g2 := NewGenerator(s, 7, 500*time.Millisecond, DefaultClasses())
	for i := 0; i < 100; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if a.Name != b.Name || a.Nodes != b.Nodes || a.PPN != b.PPN || a.ACPN != b.ACPN || a.Walltime != b.Walltime {
			t.Fatalf("job %d reshuffled: %+v vs %+v", i, a, b)
		}
	}
}

// Every arrival process should hold its configured long-run rate.
func TestArrivalsMeanRate(t *testing.T) {
	for _, p := range []ArrivalProcess{ArrivalPoisson, ArrivalUniform, ArrivalBurst} {
		a, err := NewArrivals(ArrivalConfig{Process: p, Rate: 200, Seed: 3, MaxJobs: 4000})
		if err != nil {
			t.Fatal(err)
		}
		var last TraceEntry
		for {
			e, ok := a.Next()
			if !ok {
				break
			}
			last = e
		}
		got := float64(a.Emitted()) / last.At.Seconds()
		if math.Abs(got-200)/200 > 0.10 {
			t.Errorf("%s: long-run rate %.1f jobs/s, want ~200", p, got)
		}
	}
}

func TestArrivalsHorizonAndMaxJobs(t *testing.T) {
	a, err := NewArrivals(ArrivalConfig{Rate: 100, Seed: 1, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		e, ok := a.Next()
		if !ok {
			break
		}
		if e.At > time.Second {
			t.Fatalf("entry past horizon: %v", e.At)
		}
		n++
	}
	if n == 0 || n > 200 {
		t.Fatalf("horizon-bounded stream yielded %d jobs", n)
	}
	if _, ok := a.Next(); ok {
		t.Fatal("stream restarted after drying")
	}
}

func TestTraceSource(t *testing.T) {
	entries := []TraceEntry{
		{At: time.Millisecond, Name: "a"},
		{At: 2 * time.Millisecond, Name: "b"},
	}
	src := NewTraceSource(entries)
	var got []string
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, e.Name)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replayed %v", got)
	}
}

func TestParseArrivalProcess(t *testing.T) {
	if p, err := ParseArrivalProcess(""); err != nil || p != ArrivalPoisson {
		t.Fatalf("empty: %v %v", p, err)
	}
	if p, err := ParseArrivalProcess("burst"); err != nil || p != ArrivalBurst {
		t.Fatalf("burst: %v %v", p, err)
	}
	if _, err := ParseArrivalProcess("nope"); err == nil {
		t.Fatal("want error for unknown process")
	}
}

// An arrival draw allocates at most once — the job name — and nothing
// for the gap or the shape: the service admission pump pays it once per
// admitted job (twice when the name was a Sprintf).
func TestArrivalsNextAllocs(t *testing.T) {
	a, err := NewArrivals(ArrivalConfig{Rate: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := func() {
		if _, ok := a.Next(); !ok {
			t.Fatal("stream dried up")
		}
	}
	for i := 0; i < 16; i++ { // settle RNG and counter state
		next()
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs > 1 && !raceDetectorOn {
		t.Errorf("Arrivals.Next: %v allocs/op, want at most 1", allocs)
	}
}

// The n-th arrival is named "<class>-<n>", as Sprintf("%s-%d") named it,
// for every class of the default mix and past every digit boundary.
func TestArrivalNamesAreClassAndCount(t *testing.T) {
	a, err := NewArrivals(ArrivalConfig{Rate: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12345; i++ {
		e, ok := a.Next()
		if !ok {
			t.Fatalf("stream dried up at %d", i)
		}
		if want := fmt.Sprintf("%s-%d", e.Owner, i); e.Name != want {
			t.Fatalf("arrival %d named %q, want %q", i, e.Name, want)
		}
	}
}
