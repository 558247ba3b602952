package service_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// heapAfterGC forces a full collection and returns live heap bytes —
// the only way ReadMemStats deltas are comparable across samples.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// The steady-state soak: a resident instance serves two equal-length
// job windows; the live heap after the second window must sit within
// a small allowance of the heap after the first. Without the
// retention window, the ledger pool, and the ring caps, tens of
// thousands of job records (serverJob + accounting + ledger entries)
// would grow the second sample by many megabytes.
func TestServeSoakSteadyStateMemory(t *testing.T) {
	window := 20000
	if testing.Short() {
		window = 3000
	}
	p := testParams(8)
	src, err := workload.NewArrivals(workload.ArrivalConfig{
		Rate: 400, Seed: 13, MaxJobs: 2 * window, Classes: shortClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var afterFirst, afterSecond uint64
	var midStats, endStats service.Stats
	rep, err := service.Run(service.Config{
		Cluster:        p,
		Source:         src,
		ScrapeInterval: 5 * time.Second,
		MaxWindows:     64,
		Probe: func(inst *service.Instance) {
			s := inst.Cluster().Sim
			for int(inst.ServiceStats().Completed) < window {
				s.Sleep(250 * time.Millisecond)
			}
			afterFirst = heapAfterGC()
			midStats = inst.ServiceStats()
			for int(inst.ServiceStats().Completed) < 2*window {
				s.Sleep(250 * time.Millisecond)
			}
			afterSecond = heapAfterGC()
			endStats = inst.ServiceStats()
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != 2*window {
		t.Fatalf("completed %d want %d", rep.Completed, 2*window)
	}

	// Pooled reuse must carry the second window: after warmup, nearly
	// every ledger record and server job record comes from a pool.
	grewRecycled := endStats.Recycled - midStats.Recycled
	if grewRecycled < uint64(window/2) {
		t.Errorf("second window recycled only %d ledger records (window %d)", grewRecycled, window)
	}
	if rep.Records.Reused == 0 || rep.Records.Purged == 0 {
		t.Errorf("server pool idle: %+v", rep.Records)
	}
	// Retention holds the server index at O(window), not O(jobs ever).
	if held := rep.Records.Live + rep.Records.Retained; held > service.DefaultRetainCompleted+256 {
		t.Errorf("server holds %d job records after %d jobs", held, 2*window)
	}
	// Scrape ring respected its cap.
	if len(rep.Windows) > 64 {
		t.Errorf("%d scrape windows, cap 64", len(rep.Windows))
	}

	// The headline assertion: live heap is flat across two equal
	// windows. The allowance absorbs GC noise and pool warm-up tails;
	// an actual leak of window job records costs well over 8 MB.
	if afterSecond > afterFirst && afterSecond-afterFirst > 8<<20 {
		t.Errorf("heap grew %d bytes across a %d-job window (first %d, second %d)",
			afterSecond-afterFirst, window, afterFirst, afterSecond)
	}
}

// trailer appends one plain job well after the last entry of a stream,
// so that a probe can look at the instance while every job before it
// has drained and the fabric is still up.
type trailer struct {
	workload.Source
	gap  time.Duration
	last time.Duration
	done bool
}

func (t *trailer) Next() (workload.TraceEntry, bool) {
	if e, ok := t.Source.Next(); ok {
		t.last = e.At
		return e, true
	}
	if t.done {
		return workload.TraceEntry{}, false
	}
	t.done = true
	return workload.TraceEntry{
		At: t.last + t.gap, Name: "trailer", Owner: "soak", Nodes: 1, PPN: 1,
		Runtime: 10 * time.Millisecond, Walltime: time.Second,
	}, true
}

// residue is what a drained instance still holds.
type residue struct {
	endpoints, pairs, dangling int
	procs, mpiPorts, dacPorts  int
}

// soakDynamicMix serves jobs open-loop arrivals of which a seeded third
// run AC_Init / AC_Get / AC_Free / AC_Finalize (half of those on a
// static accelerator as well, so the mom's daemon start, the MPI port
// and AC_Init's connect are on the path), waits until all have drained
// and reports what is left, plus the live heap a quarter of the way
// through and at the end.
func soakDynamicMix(t *testing.T, jobs int) (left residue, heapQuarter, heapEnd uint64) {
	t.Helper()
	arrivals, err := workload.NewArrivals(workload.ArrivalConfig{
		Rate: 20, Seed: 29, MaxJobs: jobs,
		Classes: append(shortClasses(),
			workload.Class{Name: "dyn", Weight: 1, Nodes: 1, PPN: 1, MinRun: 300 * time.Millisecond, MaxRun: 600 * time.Millisecond,
				DynACs: 2, DynHold: 100 * time.Millisecond},
			workload.Class{Name: "static+dyn", Weight: 1, Nodes: 1, PPN: 1, ACPN: 1, MinRun: 300 * time.Millisecond, MaxRun: 600 * time.Millisecond,
				DynACs: 1, DynHold: 100 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var granted int64
	rep, err := service.Run(service.Config{
		Cluster:        testParams(8),
		Source:         &trailer{Source: arrivals, gap: 30 * time.Second},
		ScrapeInterval: 5 * time.Second,
		MaxWindows:     64,
		Probe: func(inst *service.Instance) {
			c := inst.Cluster()
			for int(inst.ServiceStats().Completed) < jobs/4 {
				c.Sim.Sleep(250 * time.Millisecond)
			}
			heapQuarter = heapAfterGC()
			for int(inst.ServiceStats().Completed) < jobs {
				c.Sim.Sleep(250 * time.Millisecond)
			}
			c.Sim.Sleep(5 * time.Second) // the last daemons' exit messages land
			heapEnd = heapAfterGC()
			census := c.Net.Census()
			left = residue{endpoints: census.Endpoints, pairs: census.Pairs, dangling: census.Dangling}
			left.procs, left.mpiPorts = c.MPI.Live()
			left.dacPorts = c.DAC.PublishedPorts()
			granted = inst.Registry().Counter("pbs.dyn_granted").Value()
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != jobs+1 {
		t.Fatalf("completed %d of %d jobs", rep.Completed, jobs+1)
	}
	if int(granted) < jobs/4 {
		t.Fatalf("only %d dynamic requests granted over %d jobs: the mix did not exercise the path", granted, jobs)
	}
	return left, heapQuarter, heapEnd
}

// A resident instance that serves dynamic requests ends where it began:
// whatever the daemons, attached processes and IFL clients of its jobs
// built is released with them, so two soaks a factor of four apart in
// admitted jobs drain to the same endpoints (the resident set), no MPI
// process, no open or published port and no pair state naming an
// endpoint that is gone — and the heap does not grow with the jobs
// served.
func TestServeSoakDynamicMixDrainsToResidentSet(t *testing.T) {
	jobs := 2500
	if testing.Short() {
		jobs = 250
	}
	short, _, _ := soakDynamicMix(t, jobs)
	long, heapQuarter, heapEnd := soakDynamicMix(t, 4*jobs)

	const resident = 8 + 16 + 4 // moms, server, scheduler, the pump and query clients
	for _, r := range []struct {
		name string
		left residue
	}{{"short", short}, {"long", long}} {
		left := r.left
		if left.endpoints != resident {
			t.Errorf("%s soak drained to %d endpoints, want the resident %d", r.name, left.endpoints, resident)
		}
		if left.procs != 0 || left.mpiPorts != 0 || left.dacPorts != 0 {
			t.Errorf("%s soak drained to %d processes, %d open and %d published ports, want none",
				r.name, left.procs, left.mpiPorts, left.dacPorts)
		}
		if left.dangling != 0 {
			t.Errorf("%s soak: %d of %d pair states name a released endpoint", r.name, left.dangling, left.pairs)
		}
	}
	if short.endpoints != long.endpoints || short.procs != long.procs {
		t.Errorf("live state grew with the jobs served: %+v after %d jobs, %+v after %d", short, jobs, long, 4*jobs)
	}
	if long.pairs > 4*resident*resident {
		t.Errorf("%d pair states among %d resident endpoints", long.pairs, resident)
	}
	if heapEnd > heapQuarter && heapEnd-heapQuarter > 8<<20 {
		t.Errorf("heap grew %d bytes between %d and %d jobs served (%d, then %d)",
			heapEnd-heapQuarter, jobs, 4*jobs, heapQuarter, heapEnd)
	}
}
