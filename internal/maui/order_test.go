package maui

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/pbs"
	"repro/internal/sim"
)

// Placement order is part of every figure, so the allocation-free sort
// must give the order the closure-based one gave: indices by priority,
// highest first, ties in queue order. Ties are the case that matters — a
// burst submitted at one instant by one owner has equal priorities
// throughout — so the vectors draw from a handful of values.
func TestSortByPriorityKeepsTheOrderOfSliceStable(t *testing.T) {
	rng := sim.NewRNG(20)
	values := []float64{-3.5, 0, 0, 1, 1e-9, 7, 7, 1e12}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(200)
		distinct := 1 + rng.Intn(len(values)) // 1: every priority equal
		prio := make([]float64, n)
		jobs := make([]rankedJob, n)
		want := make([]int, n)
		for i := range prio {
			prio[i] = values[rng.Intn(distinct)]
			jobs[i] = rankedJob{prio: prio[i], idx: int32(i)}
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return prio[want[a]] > prio[want[b]] })
		sortByPriority(jobs)
		for k := range jobs {
			if int(jobs[k].idx) != want[k] {
				t.Fatalf("trial %d (%d jobs, %d distinct priorities): position %d holds job %d, sort.SliceStable put %d there",
					trial, n, distinct, k, jobs[k].idx, want[k])
			}
		}
		// The arbiter's order names its tie-break, so it needs no
		// stability: same sequence.
		slices.SortFunc(jobs, byPriorityThenIndex)
		for k := range jobs {
			if int(jobs[k].idx) != want[k] {
				t.Fatalf("trial %d: byPriorityThenIndex puts job %d at %d, want %d", trial, jobs[k].idx, k, want[k])
			}
		}
	}
}

// shadowTimeOverQstat is shadowTime as it read the full qstat records
// the server used to ship.
func shadowTimeOverQstat(now time.Duration, running []pbs.JobInfo) time.Duration {
	end := now
	for _, j := range running {
		est := j.StartedAt + j.Spec.Walltime
		if j.StartedAt == 0 {
			est = now + j.Spec.Walltime
		}
		if est > end {
			end = est
		}
	}
	return end
}

// The backfill reservation over the slim running view is the one the
// full records gave, for every kind of job the list can hold.
func TestShadowTimeOverTheRunViewMatchesQstatRecords(t *testing.T) {
	job := func(started, walltime time.Duration) pbs.JobInfo {
		return pbs.JobInfo{ID: "j", State: pbs.JobRunning, StartedAt: started,
			Hosts: []string{"cn0"}, Spec: pbs.JobSpec{Nodes: 1, Walltime: walltime}}
	}
	table := []pbs.JobInfo{
		job(3*time.Second, time.Minute),  // started, ends in the future
		job(time.Second, 2*time.Second),  // started, estimate already passed
		job(0, 30*time.Second),           // allocated, start not yet reported
		job(0, 2*time.Minute),            // the same, and the latest end
		job(5*time.Second, 0),            // started, no walltime estimate
		job(0, 0),                        // not started, no estimate
		job(9*time.Second, -time.Second), // a nonsense estimate stays harmless
	}
	b := newSyncBed(1, 0, false, pbs.ServerParams{}, DefaultParams())
	b.run(t, func() {
		b.s.Sleep(10 * time.Second)
		now := b.s.Now()
		for lo := 0; lo <= len(table); lo++ {
			for hi := lo; hi <= len(table); hi++ {
				var view []pbs.SchedRunView
				for _, j := range table[lo:hi] {
					view = append(view, pbs.SchedRunView{ID: j.ID, StartedAt: j.StartedAt, Walltime: j.Spec.Walltime})
				}
				if got, want := shadowTime(view, now), shadowTimeOverQstat(now, table[lo:hi]); got != want {
					t.Errorf("jobs %d..%d: shadow time %v over the view, %v over the records", lo, hi, got, want)
				}
			}
		}
		if got := shadowTime(nil, now); got != now {
			t.Errorf("no running job: shadow time %v, want now (%v)", got, now)
		}
	})
}
