package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/linttest"
)

func TestWalltime(t *testing.T) {
	a := lint.NewWalltime("wallclockok")
	linttest.Run(t, "testdata", []*analysis.Analyzer{a}, "wallsim", "wallclockok")
}

func TestSeededRand(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewSeededRand()}, "randbad")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewMapOrder()}, "mapout")
}

func TestSpanBalance(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewSpanBalance()}, "spans")
}

func TestHandlerExhaustive(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewHandlerExhaustive()}, "handlers")
}

func TestDigestDet(t *testing.T) {
	linttest.Run(t, "testdata", []*analysis.Analyzer{lint.NewDigestDet()}, "digests")
}

func TestPoolBalance(t *testing.T) {
	a := lint.NewPoolBalance("(*poolbal.Conn).Recv", "(*poolbal.Conn).TryRecv", "poolbal.Acquire")
	linttest.Run(t, "testdata", []*analysis.Analyzer{a}, "poolbal")
}

// TestIgnoreDirectives covers the suppression contract end to end:
// wrong-name directives suppress nothing, multi-name and same-line
// directives suppress their named analyzers.
func TestIgnoreDirectives(t *testing.T) {
	a := lint.NewWalltime()
	linttest.Run(t, "testdata", []*analysis.Analyzer{a}, "ignores")
}

// TestMalformedIgnore asserts that a //lint:ignore with no reason is
// itself reported and does not suppress the finding below it.
func TestMalformedIgnore(t *testing.T) {
	pkg, err := linttest.Load("testdata", "badignore")
	if err != nil {
		t.Fatalf("loading badignore: %v", err)
	}
	diags, err := lint.Run(pkg, []*analysis.Analyzer{lint.NewWalltime()})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	var sawMalformed, sawWalltime bool
	for _, d := range diags {
		switch d.Category {
		case "ignore":
			sawMalformed = true
			if !strings.Contains(d.Message, "non-empty reason") {
				t.Errorf("malformed-directive message = %q", d.Message)
			}
		case "walltime":
			sawWalltime = true
		}
	}
	if !sawMalformed {
		t.Error("reasonless //lint:ignore was not reported")
	}
	if !sawWalltime {
		t.Error("reasonless //lint:ignore suppressed the walltime finding")
	}
}

// TestSuite pins the shipped analyzer set: seven analyzers, stable
// names, stable order — the -json report's analyzers map keys off
// these names.
func TestSuite(t *testing.T) {
	want := []string{"walltime", "seededrand", "maporder", "spanbalance", "poolbalance", "handlerexhaustive", "digestdet"}
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
