package telemetry

import (
	"testing"
	"time"
)

// series builds a three-window scrape with a latency histogram that
// breaches 100ms in window 2, plus an occupancy row.
func testSeries() []Window {
	win := func(i int, p99 time.Duration, n float64, occ float64) Window {
		rows := []Row{
			{Name: "maui.occupancy", Kind: KindOccupancy, Delta: occ},
			{Name: "pbs.dyn_latency", Kind: KindHistogram, Delta: n, Total: n, P50: p99 / 2, P99: p99, Mean: p99 / 2},
		}
		return Window{
			Index: i,
			Start: time.Duration(i) * time.Second,
			End:   time.Duration(i+1) * time.Second,
			Rows:  rows,
		}
	}
	return []Window{
		win(0, 40*time.Millisecond, 10, 0.2),
		win(1, 90*time.Millisecond, 10, 0.3),
		win(2, 150*time.Millisecond, 10, 0.9),
	}
}

func TestEvaluateFirstBreach(t *testing.T) {
	objs := []Objective{
		{Name: "dyn-p99", Instrument: "pbs.dyn_latency", Stat: StatP99, Max: 0.100},
		{Name: "dyn-p50", Instrument: "pbs.dyn_latency", Stat: StatP50, Max: 1},
		{Name: "sched-occ", Instrument: "maui.occupancy", Stat: StatDelta, Max: 0.5},
		{Name: "missing", Instrument: "no.such", Stat: StatDelta, Max: 1},
	}
	res := Evaluate(testSeries(), objs)
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}

	p99 := res[0]
	if p99.Compliant || p99.Breaches != 1 || p99.Windows != 3 {
		t.Fatalf("dyn-p99 = %+v, want 1 breach over 3 windows", p99)
	}
	if p99.First != 3*time.Second {
		t.Fatalf("dyn-p99 first breach = %v, want 3s (end of window 2)", p99.First)
	}
	if p99.Worst != (150 * time.Millisecond).Seconds() {
		t.Fatalf("dyn-p99 worst = %v, want 0.15", p99.Worst)
	}

	if p50 := res[1]; !p50.Compliant || p50.First != -1 || p50.Breaches != 0 {
		t.Fatalf("dyn-p50 = %+v, want compliant with no breach", p50)
	}
	if occ := res[2]; occ.Compliant || occ.Breaches != 1 || occ.First != 3*time.Second {
		t.Fatalf("sched-occ = %+v, want breach in window 2", occ)
	}
	// An objective whose instrument never appears is not compliant:
	// zero evaluable windows prove nothing.
	if miss := res[3]; miss.Compliant || miss.Windows != 0 {
		t.Fatalf("missing = %+v, want 0 windows, not compliant", miss)
	}
}

// An objective no window evaluated is neither met nor breached: it
// counts toward neither side of met/evaluated.
func TestMetCountsOnlyEvaluatedObjectives(t *testing.T) {
	objs := []Objective{
		{Name: "dyn-p99", Instrument: "pbs.dyn_latency", Stat: StatP99, Max: 0.100},
		{Name: "dyn-p50", Instrument: "pbs.dyn_latency", Stat: StatP50, Max: 1},
		{Name: "missing", Instrument: "no.such", Stat: StatDelta, Max: 1},
	}
	res := Evaluate(testSeries(), objs)
	if got := Met(res); got != "1/2" {
		t.Errorf("Met = %s, want 1/2", got)
	}
	if got := Met(Evaluate(nil, objs)); got != "0/0" {
		t.Errorf("Met over no windows = %s, want 0/0", got)
	}
}

func TestEvaluateSkipsEmptyHistWindows(t *testing.T) {
	wins := testSeries()
	wins[2].Rows[1].Delta = 0 // nothing observed in the breaching window
	res := Evaluate(wins, []Objective{
		{Name: "dyn-p99", Instrument: "pbs.dyn_latency", Stat: StatP99, Max: 0.100},
	})
	if r := res[0]; !r.Compliant || r.Windows != 2 {
		t.Fatalf("empty hist window must be skipped: %+v", r)
	}
}

func TestEvaluateMinBound(t *testing.T) {
	res := Evaluate(testSeries(), []Objective{
		{Name: "occ-floor", Instrument: "maui.occupancy", Stat: StatDelta, Min: 0.25},
	})
	r := res[0]
	if r.Compliant || r.Breaches != 1 {
		t.Fatalf("occ-floor = %+v, want window-0 breach", r)
	}
	if r.First != time.Second {
		t.Fatalf("occ-floor first breach = %v, want 1s", r.First)
	}
	if r.Worst != 0.2 {
		t.Fatalf("occ-floor worst = %v, want the smallest value 0.2", r.Worst)
	}
}

func TestObjectiveTarget(t *testing.T) {
	cases := []struct {
		o    Objective
		want string
	}{
		{Objective{Stat: StatP99, Max: 0.4}, "<= 400.0ms"},
		{Objective{Stat: StatDelta, Max: 0.5}, "<= 0.5"},
		{Objective{Stat: StatDelta, Min: 0.25}, ">= 0.25"},
		{Objective{Stat: StatDelta}, "(unbounded)"},
	}
	for _, c := range cases {
		if got := c.o.Target(); got != c.want {
			t.Errorf("Target(%+v) = %q, want %q", c.o, got, c.want)
		}
	}
}
