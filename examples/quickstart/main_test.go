package main

import (
	"testing"

	"repro/internal/golden"
)

func TestOutputMatchesGolden(t *testing.T) {
	golden.Check(t, golden.Stdout(t, main), "examples/quickstart", "testdata/quickstart.golden")
}
