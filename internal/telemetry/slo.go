package telemetry

import (
	"fmt"
	"time"
)

// Stat names the per-window statistic an SLO objective constrains.
type Stat string

// Statistics an Objective can reference. The time-valued histogram
// statistics (p50/p99/p999/mean/max) are evaluated in seconds; delta
// and total are the Row fields of the same name (so "delta" on an
// occupancy instrument is its per-window busy ratio, and on a counter
// its per-window rate).
const (
	StatP50   Stat = "p50"
	StatP99   Stat = "p99"
	StatP999  Stat = "p999"
	StatMean  Stat = "mean"
	StatMax   Stat = "max"
	StatDelta Stat = "delta"
	StatTotal Stat = "total"
)

// Objective is one service-level objective: a bound on a per-window
// statistic of one instrument. Plain Go structs, no config files —
// experiments declare their SLO set in code.
//
// Max and Min are inclusive bounds in the statistic's native unit
// (seconds for time-valued stats); a zero bound is unused, so the
// common latency objective sets only Max. Windows in which a
// histogram instrument recorded nothing are skipped: an empty window
// says nothing about latency.
type Objective struct {
	Name       string // human label, e.g. "dyn-p99"
	Instrument string // registry instrument name, e.g. "pbs.dyn_latency"
	Stat       Stat
	Max        float64 // upper bound; 0 = unbounded above
	Min        float64 // lower bound; 0 = unbounded below
}

// Target renders the objective's bound for tables ("≤ 400ms" style,
// ASCII to keep CI logs plain).
func (o Objective) Target() string {
	timeValued := o.Stat == StatP50 || o.Stat == StatP99 || o.Stat == StatP999 ||
		o.Stat == StatMean || o.Stat == StatMax
	format := func(v float64) string {
		if timeValued {
			return fmt.Sprintf("%.1fms", v*1e3)
		}
		return fmt.Sprintf("%g", v)
	}
	switch {
	case o.Max != 0 && o.Min != 0:
		return fmt.Sprintf("%s..%s", format(o.Min), format(o.Max))
	case o.Max != 0:
		return "<= " + format(o.Max)
	case o.Min != 0:
		return ">= " + format(o.Min)
	}
	return "(unbounded)"
}

// Compliance is the evaluation of one Objective over a window series.
type Compliance struct {
	Objective Objective
	Windows   int           // windows in which the stat was evaluable
	Breaches  int           // evaluable windows violating the bound
	First     time.Duration // virtual end time of the first breaching window; -1 when none
	Worst     float64       // most-violating observed value (largest for Max bounds, smallest for Min-only)
	Compliant bool          // no breaches over at least one evaluable window
}

// Evaluate checks every objective against a scrape series, reporting
// per-objective compliance and the virtual timestamp of the first
// breach. Results are returned in objective order; evaluation is pure
// and deterministic.
func Evaluate(windows []Window, objectives []Objective) []Compliance {
	out := make([]Compliance, 0, len(objectives))
	for _, o := range objectives {
		c := Compliance{Objective: o, First: -1}
		first := true
		for _, w := range windows {
			row, ok := findRow(w, o.Instrument)
			if !ok {
				continue
			}
			if row.Kind == KindHistogram && row.Delta == 0 {
				continue // nothing observed this window
			}
			v, ok := statValue(row, o.Stat)
			if !ok {
				continue
			}
			c.Windows++
			if first || moreViolating(o, v, c.Worst) {
				c.Worst = v
				first = false
			}
			if (o.Max != 0 && v > o.Max) || (o.Min != 0 && v < o.Min) {
				c.Breaches++
				if c.First < 0 {
					c.First = w.End
				}
			}
		}
		c.Compliant = c.Windows > 0 && c.Breaches == 0
		out = append(out, c)
	}
	return out
}

// Met renders the objectives met over those any window evaluated.
func Met(cs []Compliance) string {
	met, evaluated := 0, 0
	for _, c := range cs {
		if c.Windows > 0 {
			evaluated++
		}
		if c.Compliant {
			met++
		}
	}
	return fmt.Sprintf("%d/%d", met, evaluated)
}

func findRow(w Window, name string) (Row, bool) {
	for _, r := range w.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

func statValue(r Row, s Stat) (float64, bool) {
	switch s {
	case StatP50:
		return r.P50.Seconds(), r.Kind == KindHistogram
	case StatP99:
		return r.P99.Seconds(), r.Kind == KindHistogram
	case StatP999:
		return r.P999.Seconds(), r.Kind == KindHistogram
	case StatMean:
		return r.Mean.Seconds(), r.Kind == KindHistogram
	case StatMax:
		return r.Max.Seconds(), r.Kind == KindHistogram
	case StatDelta:
		return r.Delta, true
	case StatTotal:
		return r.Total, true
	}
	return 0, false
}

// moreViolating orders candidate "worst" values: with an upper bound
// (or no bound) larger is worse; with only a lower bound smaller is
// worse.
func moreViolating(o Objective, v, worst float64) bool {
	if o.Max == 0 && o.Min != 0 {
		return v < worst
	}
	return v > worst
}
