// Command dacserve runs the simulated DAC cluster as an online
// service: a resident instance absorbs an open-loop submission stream
// (Poisson, uniform, or bursty — deterministic under -seed) at a
// target rate for a virtual duration, then prints the steady-state
// SLO table (dynamic-request latency tail, scheduler cycle cost and
// occupancy, queue depth) and the sustained-throughput summary.
//
// Usage:
//
//	dacserve                                  # 64 compute nodes, default rate, 60s window
//	dacserve -cns 256 -rate 64 -for 2m        # explicit load point
//	dacserve -server sharded -cns 1024        # partitioned server ablation
//	dacserve -process burst -burst-len 32     # bursty arrivals
//	dacserve -capture serve                   # live scrape series for dacobs stat (serve-<cns>.jsonl)
//	dacserve -observe trace,audit -capture serve   # plus spans and the flight recording
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
	cns := flag.Int("cns", 64, "compute nodes (accelerators and rate scale with this)")
	rate := flag.Float64("rate", 0, "open-loop submission rate in jobs per virtual second (0 = cns/4)")
	dur := flag.Duration("for", 0, "virtual admission window; the run then drains in-flight jobs (0 = 60s)")
	serverMode := flag.String("server", "faithful", "server ablation: faithful (serial pbs_server + global Maui cycle) or sharded (partitioned fast path)")
	process := flag.String("process", "poisson", "arrival process: poisson, uniform, or burst")
	burstLen := flag.Int("burst-len", 0, "with -process burst: jobs per burst (0 = 16)")
	burstFactor := flag.Float64("burst-factor", 0, "with -process burst: in-burst rate multiplier (0 = 8)")
	maxJobs := flag.Int("max-jobs", 0, "admission cap in jobs (0 = 2x the expected count for the window)")
	seed := flag.Uint64("seed", 0, "arrival and job-shape seed; 0 derives the ladder default from -cns")
	observe := flag.String("observe", "", "comma-separated extra observers to attach: trace (spans), audit (flight recorder and invariant checks; exits non-zero on any breach); telemetry is always on")
	captureOut := flag.String("capture", "", "write the scrape series and what the extra observers saw (JSONL, readable by dacobs) to PREFIX-<cns>.jsonl")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	mode, err := repro.ParseServerMode(*serverMode)
	if err != nil {
		log.Fatalf("dacserve: %v", err)
	}
	proc, err := repro.ParseArrivalProcess(*process)
	if err != nil {
		log.Fatalf("dacserve: %v", err)
	}
	if (*burstLen != 0 || *burstFactor != 0) && proc != repro.ArrivalBurst {
		log.Fatal("dacserve: -burst-len/-burst-factor require -process burst")
	}
	obs, err := repro.ParseObservers(*observe)
	if err != nil {
		log.Fatalf("dacserve: -observe: %v", err)
	}

	start := time.Now()
	pt, err := repro.ServeOne(repro.DefaultParams(), *cns, mode, repro.ArrivalConfig{
		Process:     proc,
		Rate:        *rate,
		Seed:        *seed,
		MaxJobs:     *maxJobs,
		BurstLen:    *burstLen,
		BurstFactor: *burstFactor,
	}, *dur, obs)
	if err != nil {
		log.Fatalf("dacserve: %v", err)
	}
	elapsed := time.Since(start)

	emit := func(t *metrics.Table) {
		var err error
		if *csv {
			err = t.CSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			log.Fatalf("dacserve: %v", err)
		}
		fmt.Println()
	}
	pts := []repro.ServePoint{pt}
	emit(repro.ServeTable(pts))
	emit(repro.ServeComplianceTable(pts))

	if *captureOut != "" {
		path := repro.CapturePath(*captureOut, pt.ComputeNodes)
		if err := repro.WriteCaptureFile(path, &pt.Obs.File); err != nil {
			log.Fatalf("dacserve: capture: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dacserve: wrote %s to %s\n", pt.Obs.Kinds(), path)
	}

	// The sustained-throughput summary: how fast the host pushed the
	// virtual window through.
	sec := elapsed.Seconds()
	fmt.Fprintf(os.Stderr,
		"dacserve: served %d jobs over %v of virtual time in %v of wall time (%.0f jobs/sec, %.0f events/sec host-side)\n",
		pt.Completed, pt.Makespan.Round(time.Millisecond), elapsed.Round(time.Millisecond),
		float64(pt.Completed)/sec, float64(pt.Dispatches)/sec)
	if pt.Completed != pt.Submitted {
		log.Fatalf("dacserve: drained %d of %d admitted jobs", pt.Completed, pt.Submitted)
	}
	if pt.Obs.Breaches != 0 {
		log.Fatalf("dacserve: audit: %d invariant breaches (see the capture's kind=breach audit lines)", pt.Obs.Breaches)
	}
}
