// Command dacobs reads the capture files the simulated DAC testbed
// writes (dacsim, dacserve and dactrace with -observe … -capture
// PREFIX): kind-tagged JSONL holding a run's span stream, flight
// recording and scrape series. One subcommand per question:
//
//	dacobs prof  capture.jsonl            # where did each job's time go (span lines)
//	dacobs stat  capture.jsonl            # what did every instrument do (scrape + span lines)
//	dacobs audit capture.jsonl            # what state changes happened, did invariants hold (audit lines)
//
// Every subcommand has a -diff mode comparing two captures; see
// dacobs <subcommand> -h for its flags. Exit status: 0 on success, 1
// when the answer is "no" (a failed read, invariant breaches, diverging
// recordings), 2 on a usage error.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/capture"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "prof":
			return runProf(args[1:], stdout, stderr)
		case "stat":
			return runStat(args[1:], stdout, stderr)
		case "audit":
			return runAudit(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: dacobs prof|stat|audit [flags] CAPTURE.jsonl ...")
	return 2
}

// load reads one capture and checks it holds lines of (one of) the
// kinds the subcommand needs; a file without them is reported with
// the kinds it does hold.
func load(path string, kinds ...string) (*capture.File, error) {
	f, err := capture.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, kind := range kinds {
		if f.Count(kind) > 0 {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%s: no %s lines (the file holds %s)", path, strings.Join(kinds, " or "), f.Kinds())
}

// emit renders one table followed by a blank line.
func emit(w io.Writer, t *metrics.Table, csv bool) error {
	render := t.Render
	if csv {
		render = t.CSV
	}
	if err := render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
