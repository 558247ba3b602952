package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// dacobs stat renders a fixed capture byte for byte. The capture is one
// trial of Figure 9 with spans and scrapes, written by
//
//	cd cmd/dacobs && go run ../dacsim -fig 9 -trials 1 -observe trace,telemetry -capture testdata/fig9
//
// and needs regenerating only when the capture format changes.
func TestStatMatchesGolden(t *testing.T) {
	args := []string{"stat", "testdata/fig9.jsonl"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("dacobs %v: exit %d; stderr: %s", args, code, errb.String())
	}
	golden.Check(t, out.Bytes(), "cmd/dacobs", "testdata/dacobs.golden", args...)
}
