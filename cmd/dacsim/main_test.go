package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/golden"
)

// Every series dacsim writes under results/ (the files
// scripts/reproduce.sh regenerates) and two small serve runs, the
// ladder and one load point, must come out of the command byte for byte.
func TestOutputsMatchCommittedFiles(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"../../results/figures.txt", []string{"-fig", "all", "-trials", "10"}},
		{"../../results/figures-jitter.txt", []string{"-fig", "all", "-trials", "10", "-jitter", "0.1"}},
		{"../../results/fig7a.csv", []string{"-fig", "7a", "-trials", "10", "-csv"}},
		{"../../results/fig7b.csv", []string{"-fig", "7b", "-trials", "10", "-csv"}},
		{"../../results/fig8.csv", []string{"-fig", "8", "-trials", "10", "-csv"}},
		{"../../results/fig9.csv", []string{"-fig", "9", "-trials", "10", "-csv"}},
		{"testdata/serve.golden", []string{"-fig", "serve", "-scale-max", "8", "-serve-for", "5s"}},
		{"testdata/serve-rate.golden", []string{"-fig", "serve", "-scale-max", "128", "-rate", "8", "-serve-for", "2s"}},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 0 {
			t.Fatalf("dacsim %v: exit %d; stderr: %s", c.args, code, errb.String())
		}
		golden.Check(t, out.Bytes(), "cmd/dacsim", c.file, c.args...)
	}
}

// Flags that belong to another figure or arrival process, and unknown
// names, are usage errors: exit 2 with the reason on stderr.
func TestUsageErrorsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "nope"}, `unknown figure "nope"`},
		{[]string{"-fig", "7a", "-server", "sharded"}, "-server sharded requires -fig scale, breakdown, or serve"},
		{[]string{"-fig", "7a", "-max-jobs", "5"}, "require -fig serve"},
		{[]string{"-fig", "serve", "-burst-len", "4"}, "require -process burst"},
		{[]string{"-fig", "serve", "-process", "steady"}, `unknown arrival process "steady"`},
		{[]string{"-fig", "ablations", "-observe", "audit"}, "other than ablations"},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 || !strings.Contains(errb.String(), c.want) {
			t.Errorf("dacsim %v: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errb.String(), c.want)
		}
	}
}
