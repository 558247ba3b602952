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
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/metrics"
)

func main() {
	gen := flag.Bool("gen", false, "generate a trace")
	replay := flag.Bool("replay", false, "replay a trace against the simulated cluster")
	jobs := flag.Int("jobs", 20, "jobs to generate")
	seed := flag.Uint64("seed", 7, "generator seed")
	mean := flag.Duration("mean", 50*time.Millisecond, "mean interarrival time")
	in := flag.String("in", "", "trace file to replay (default: the generated one)")
	swf := flag.String("swf", "", "Standard Workload Format file to replay instead of a JSON trace")
	scale := flag.Float64("scale", 1.0, "time-compression factor applied to loaded traces")
	out := flag.String("out", "", "file to write the generated trace to (default: stdout)")
	cns := flag.Int("cns", 2, "compute nodes")
	acs := flag.Int("acs", 4, "accelerators")
	observe := flag.String("observe", "", "comma-separated observers to attach to the replay: trace (spans), telemetry (instrument scrapes), audit (flight recorder, invariant checks and state digests; exits non-zero on any breach)")
	captureOut := flag.String("capture", "", "write what the observers saw (JSONL, readable by dacobs) to PREFIX.jsonl")
	flag.Parse()

	if *swf != "" {
		*replay = true
	}
	if !*gen && !*replay {
		log.Fatal("dactrace: pass -gen, -replay, or both")
	}

	var trace []repro.TraceEntry
	if *gen {
		s := repro.NewSimulation()
		g := repro.NewWorkloadGenerator(s, *seed, *mean, repro.DefaultWorkloadClasses())
		trace = repro.RecordTrace(g, *jobs)
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatalf("dactrace: %v", err)
			}
			defer f.Close()
			w = f
		}
		if !*replay || *out != "" {
			if err := repro.SaveTrace(w, trace); err != nil {
				log.Fatalf("dactrace: %v", err)
			}
		}
	}
	if !*replay {
		return
	}
	switch {
	case *swf != "":
		f, err := os.Open(*swf)
		if err != nil {
			log.Fatalf("dactrace: %v", err)
		}
		defer f.Close()
		params := repro.DefaultParams()
		loaded, err := repro.ParseSWF(f, params.CoresPerNode)
		if err != nil {
			log.Fatalf("dactrace: %v", err)
		}
		trace = loaded
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("dactrace: %v", err)
		}
		defer f.Close()
		loaded, err := repro.LoadTrace(f)
		if err != nil {
			log.Fatalf("dactrace: %v", err)
		}
		trace = loaded
	}
	if *scale != 1.0 {
		trace = repro.ScaleTrace(trace, *scale)
	}
	if len(trace) == 0 {
		log.Fatal("dactrace: no trace to replay (use -gen, -in, or -swf)")
	}

	params := repro.DefaultParams()
	params.ComputeNodes = *cns
	params.Accelerators = *acs
	obs, err := repro.ParseObservers(*observe)
	if err != nil {
		log.Fatalf("dactrace: -observe: %v", err)
	}
	ses := obs.Open()
	ses.Attach(&params)
	var queued, ran metrics.Sample
	var makespan time.Duration
	var cnUtil, acUtil float64
	err = repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		ses.Start(c.Sim)
		defer ses.Stop()
		t0 := c.Sim.Now()
		ids, err := repro.ReplayTrace(c.Sim, client, trace)
		if err != nil {
			log.Fatalf("dactrace: %v", err)
		}
		var last time.Duration
		for _, id := range ids {
			info, err := client.Wait(id)
			if err != nil {
				log.Fatalf("dactrace: wait %s: %v", id, err)
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
	if err != nil {
		log.Fatalf("dactrace: %v", err)
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
	if err := t.Render(os.Stdout); err != nil {
		log.Fatalf("dactrace: %v", err)
	}
	seen := repro.Observe(0, ses)
	if *captureOut != "" {
		path := repro.CapturePath(*captureOut, 0)
		if err := repro.WriteCaptureFile(path, &seen.File); err != nil {
			log.Fatalf("dactrace: capture: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dactrace: wrote %s to %s\n", seen.Kinds(), path)
	}
	if seen.Breaches != 0 {
		log.Fatalf("dactrace: audit: %d invariant breaches (see the capture's kind=breach audit lines)", seen.Breaches)
	}
}
