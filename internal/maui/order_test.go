package maui

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

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
				var view []*pbs.MirrorJob
				for i, j := range table[lo:hi] {
					view = append(view, &pbs.MirrorJob{SchedJobView: pbs.SchedJobView{ID: j.ID, Seq: i, Phase: pbs.PhaseRunning,
						StartedAt: j.StartedAt, Spec: pbs.JobSpec{Walltime: j.Spec.Walltime}}})
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

// The merged order is the stable sort's (order.go). Random queues draw
// owners and base priorities from small sets, so groups hold many jobs;
// bursts submitted at one instant; waits a nanosecond apart against a
// base priority so large that the queue-time term is lost in rounding;
// both weights from a set that holds 0; usages decayed to arbitrary
// values. The mirror takes the jobs in as deltas in a random order, some
// going and coming back (qhold and qrls), some going for good (a
// placement).
func TestMergedOrderIsTheStableSortByPriority(t *testing.T) {
	rng := sim.NewRNG(31)
	weights := []float64{0, 0, 1e-9, 0.001, 0.1, 1, 3}
	bases := []int{0, 1, 7, 1 << 40}
	steps := []time.Duration{0, time.Nanosecond, time.Millisecond, time.Second}
	for trial := 0; trial < 600; trial++ {
		p := DefaultParams()
		p.QueueTimeWeight = weights[rng.Intn(len(weights))]
		p.FairshareWeight = weights[rng.Intn(len(weights))]
		if rng.Intn(4) == 0 {
			p.FairshareWeight = -p.FairshareWeight
		}
		sc := &Scheduler{params: p, owners: map[string]int{}}
		owners := 1 + rng.Intn(5)
		for o := 0; o < owners; o++ {
			u := float64(rng.Intn(100)) * rng.Float64()
			for d := rng.Intn(60); d > 0; d-- {
				u *= 0.95
			}
			sc.usage[sc.owner(fmt.Sprintf("u%d", o))] = u
		}
		var at time.Duration
		jobs := make([]*pbs.SchedJobView, rng.Intn(200))
		for i := range jobs {
			at += time.Duration(rng.Intn(3)) * steps[rng.Intn(len(steps))]
			jobs[i] = &pbs.SchedJobView{ID: fmt.Sprint(i + 1), Seq: i + 1, Phase: pbs.PhaseQueued, SubmittedAt: at,
				Spec: pbs.JobSpec{Owner: fmt.Sprintf("u%d", rng.Intn(owners)), Priority: bases[rng.Intn(len(bases))]}}
		}
		queued := make([]bool, len(jobs))
		for k := 0; k < 3*len(jobs); k++ {
			i := rng.Intn(len(jobs))
			if queued[i] != (rng.Intn(3) > 0) {
				queued[i] = !queued[i]
				v := *jobs[i]
				if !queued[i] {
					v.Phase = pbs.PhaseGone
				}
				sc.view.Apply(&pbs.SchedInfoResp{Jobs: []pbs.SchedJobView{v}})
			}
		}
		now := at + time.Duration(rng.Intn(3))*steps[rng.Intn(len(steps))]

		// The reference: every queued job scored once, then a stable
		// sort by priority, highest first, ties in queue order.
		type rankedJob struct {
			prio float64
			idx  int
		}
		var ranked []rankedJob
		for i, j := range jobs {
			if queued[i] {
				ranked = append(ranked, rankedJob{prio: sc.priority(j.Spec.Priority, now-j.SubmittedAt, sc.Usage(j.Spec.Owner)), idx: i})
			}
		}
		slices.SortStableFunc(ranked, func(a, b rankedJob) int { return cmp.Compare(b.prio, a.prio) })
		sc.startOrder(now)
		for k, r := range ranked {
			if got := sc.nextJob(now); got == nil || got.Seq != jobs[r.idx].Seq {
				t.Fatalf("trial %d (%d queued, weights %g/%g): position %d is job %v, the sort put job %d there",
					trial, len(ranked), p.QueueTimeWeight, p.FairshareWeight, k, got, r.idx+1)
			}
		}
		if got := sc.nextJob(now); got != nil {
			t.Fatalf("trial %d: the merge yields job %d past the %d queued", trial, got.Seq, len(ranked))
		}
	}
}

// A negative queue-time weight would reorder an owner's queue as it
// waits, which the merge cannot follow: New refuses it.
func TestNewRejectsANegativeQueueTimeWeight(t *testing.T) {
	for _, w := range []float64{-0.1, math.NaN()} {
		p := DefaultParams()
		p.QueueTimeWeight = w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted QueueTimeWeight %v", w)
				}
			}()
			New(netsim.New(sim.New(), netsim.LinkParams{}), pbs.ServerEndpoint, p)
		}()
	}
}
