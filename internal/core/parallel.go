package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// The experiment drivers average many independent trials per data
// point (the paper uses 10). Every trial runs on its own Simulation
// with its own seed, so trials can execute on separate OS threads —
// forEach below fans them out over a bounded worker pool. Determinism
// is preserved by construction: workers write into per-index slots and
// the caller reduces in index order, so the floating-point sums behind
// every reported mean are added in the same order regardless of the
// parallelism level, and figure output stays byte-identical.

var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism caps how many independent trials run concurrently.
// Values below 1 reset to the number of available cores. Figure
// output is identical at every level; 1 forces fully serial execution
// (the determinism tests compare the two).
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the current trial concurrency cap.
func Parallelism() int { return int(parallelism.Load()) }

// forEach runs fn(0..n-1) with at most Parallelism() invocations in
// flight. fn must confine its writes to index-owned state. The first
// error by index wins (matching what a serial loop would have
// returned), but unlike a serial loop all n invocations run.
func forEach(n int, fn func(i int) error) error {
	return forEachOn(Parallelism(), n, fn)
}

// forRuns is forEach for n simulations built from p under observer
// sessions opened from obs. An observer the caller left on p records
// all of them and takes no lock (cluster.Observers.Shares), so then
// they run one at a time.
func forRuns(p cluster.Params, obs cluster.Observers, n int, fn func(i int) error) error {
	if obs.Shares(p) {
		return forEachOn(1, n, fn)
	}
	return forEach(n, fn)
}

func forEachOn(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
