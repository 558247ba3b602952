package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/linttest"
)

func TestWalltime(t *testing.T) {
	a := lint.NewWalltime("wallclockok")
	linttest.Run(t, "testdata", []*analysis.Analyzer{a}, "wallsim", "wallclockok")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewMapOrder()}, "mapout")
}

func TestSpanBalance(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewSpanBalance()}, "spans")
}

// TestSuite pins the shipped analyzer set: three analyzers, stable
// names, stable order — the -json report's analyzers map keys off
// these names.
func TestSuite(t *testing.T) {
	want := []string{"walltime", "maporder", "spanbalance"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
