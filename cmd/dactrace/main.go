// Command dactrace generates synthetic workload traces and replays
// them against the simulated cluster, reporting queueing statistics.
//
// Usage:
//
//	dactrace -gen -jobs 50 -seed 7 -out trace.jsonl
//	dactrace -replay -in trace.jsonl -cns 2 -acs 4
//	dactrace -gen -jobs 20 -replay   # generate and replay in one go
//	dactrace -gen -replay -observe trace,telemetry -capture replay   # replay.jsonl for dacobs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is dactrace with its arguments and output streams: exit status
// 0 on success, 1 on a failed run or an invariant breach, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dactrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := fs.Bool("gen", false, "generate a trace")
	replay := fs.Bool("replay", false, "replay a trace against the simulated cluster")
	jobs := fs.Int("jobs", 20, "jobs to generate")
	seed := fs.Uint64("seed", 7, "generator seed")
	mean := fs.Duration("mean", 50*time.Millisecond, "mean interarrival time")
	in := fs.String("in", "", "trace file to replay (default: the generated one)")
	swf := fs.String("swf", "", "Standard Workload Format file to replay instead of a JSON trace")
	scale := fs.Float64("scale", 1.0, "time-compression factor applied to loaded traces")
	out := fs.String("out", "", "file to write the generated trace to (default: stdout)")
	cns := fs.Int("cns", 2, "compute nodes")
	acs := fs.Int("acs", 4, "accelerators")
	observe := fs.String("observe", "", "comma-separated observers to attach to the replay: trace (spans), telemetry (instrument scrapes), audit (flight recorder, invariant checks and state digests; exits non-zero on any breach)")
	captureOut := fs.String("capture", "", "write what the observers saw (JSONL, readable by dacobs) to PREFIX.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exit := func(status int, format string, a ...any) int {
		fmt.Fprintf(stderr, "dactrace: "+format+"\n", a...)
		return status
	}

	if *swf != "" {
		*replay = true
	}
	if !*gen && !*replay {
		return exit(2, "pass -gen, -replay, or both")
	}

	var trace []repro.TraceEntry
	if *gen {
		s := repro.NewSimulation()
		g := repro.NewWorkloadGenerator(s, *seed, *mean, repro.DefaultWorkloadClasses())
		trace = repro.RecordTrace(g, *jobs)
		var err error
		switch {
		case *out != "":
			var f *os.File
			if f, err = os.Create(*out); err == nil {
				err = errors.Join(repro.SaveTrace(f, trace), f.Close())
			}
		case !*replay:
			err = repro.SaveTrace(stdout, trace)
		}
		if err != nil {
			return exit(1, "%v", err)
		}
	}
	if !*replay {
		return 0
	}
	params := repro.DefaultParams()
	if *swf != "" || *in != "" {
		path, parse := *in, repro.LoadTrace
		if *swf != "" {
			path, parse = *swf, func(r io.Reader) ([]repro.TraceEntry, error) {
				return repro.ParseSWF(r, params.CoresPerNode)
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return exit(1, "%v", err)
		}
		defer f.Close()
		if trace, err = parse(f); err != nil {
			return exit(1, "%v", err)
		}
	}
	if *scale != 1.0 {
		trace = repro.ScaleTrace(trace, *scale)
	}
	if len(trace) == 0 {
		return exit(2, "no trace to replay (use -gen, -in, or -swf)")
	}

	params.ComputeNodes = *cns
	params.Accelerators = *acs
	obs, err := repro.ParseObservers(*observe)
	if err != nil {
		return exit(2, "-observe: %v", err)
	}
	ses := obs.Open()
	ses.Attach(&params)
	var queued, ran metrics.Sample
	var makespan time.Duration
	var cnUtil, acUtil float64
	// replayErr is the first failed replay step; the run stops there.
	var replayErr error
	err = repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		ses.Start(c.Sim)
		defer ses.Stop()
		t0 := c.Sim.Now()
		ids, err := repro.ReplayTrace(c.Sim, client, trace)
		if err != nil {
			replayErr = err
			return
		}
		var last time.Duration
		for _, id := range ids {
			info, err := client.Wait(id)
			if err != nil {
				replayErr = fmt.Errorf("wait %s: %w", id, err)
				return
			}
			queued.Add(info.StartedAt - info.SubmittedAt)
			ran.Add(info.CompletedAt - info.StartedAt)
			if info.CompletedAt > last {
				last = info.CompletedAt
			}
		}
		makespan = last - t0
		cnUtil, acUtil = c.Server.ClusterUtilization(makespan)
	})
	if err := errors.Join(err, replayErr); err != nil {
		return exit(1, "%v", err)
	}

	t := &metrics.Table{
		Title:   fmt.Sprintf("replay of %d jobs on %d CN / %d AC", len(trace), *cns, *acs),
		Headers: []string{"metric", "mean_ms", "min_ms", "max_ms"},
	}
	t.AddRow("queue wait", metrics.Ms(queued.Mean()), metrics.Ms(queued.Min()), metrics.Ms(queued.Max()))
	t.AddRow("runtime", metrics.Ms(ran.Mean()), metrics.Ms(ran.Min()), metrics.Ms(ran.Max()))
	t.AddRow("makespan", metrics.Ms(makespan), "", "")
	t.AddRow("compute util", fmt.Sprintf("%.1f%%", 100*cnUtil), "", "")
	t.AddRow("accel util", fmt.Sprintf("%.1f%%", 100*acUtil), "", "")
	if err := t.Render(stdout); err != nil {
		return exit(1, "%v", err)
	}
	seen := repro.Observe(0, ses)
	if *captureOut != "" {
		path := repro.CapturePath(*captureOut, 0)
		if err := repro.WriteCaptureFile(path, &seen.File); err != nil {
			return exit(1, "capture: %v", err)
		}
		fmt.Fprintf(stderr, "dactrace: wrote %s to %s\n", seen.Kinds(), path)
	}
	if seen.Breaches != 0 {
		return exit(1, "audit: %d invariant breaches (see the capture's kind=breach audit lines)", seen.Breaches)
	}
	return 0
}
