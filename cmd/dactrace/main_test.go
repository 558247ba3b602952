package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// Generate six jobs and replay them on the default 2 CN / 4 AC
// cluster: the queueing table must come out byte for byte.
func TestReplayMatchesGolden(t *testing.T) {
	args := []string{"-gen", "-jobs", "6", "-replay"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("dactrace %v: exit %d; stderr: %s", args, code, errb.String())
	}
	golden.Check(t, out.Bytes(), "cmd/dactrace", "testdata/dactrace.golden", args...)
}
