package pbs_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// One map and one submission-ordered active list serve both server
// architectures (index.go). This is the property that lets them: under
// 16-shard routing — every job's traffic on the worker its sequence
// number picks — as under the single loop, through a seeded mix of
// submissions, holds, releases, deletions of queued jobs and
// completions, with a retention window purging and recycling records
// all the while, the list stays strictly ascending in sequence number,
// compactActive visits exactly the live jobs, each once, and the two
// servers end on the same pbs.jobs digest with no invariant breached
// (jobs.index and jobs.count are checked every cycle of the run).
func TestActiveListPropertyUnderShardRouting(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			faithful := runIndexScenario(t, seed, 0)
			sharded := runIndexScenario(t, seed, 16)
			if faithful != sharded {
				t.Errorf("final pbs.jobs digest: faithful %#x, 16 shards %#x", faithful, sharded)
			}
		})
	}
}

func runIndexScenario(t *testing.T, seed uint64, shards int) (jobsDigest int64) {
	t.Helper()
	const retain = 6
	rec := audit.New(1 << 16)
	s := sim.New()
	s.SetAudit(rec)
	// One compute node and whole-node jobs: they run one at a time, in
	// the order the scheduler is shown them, in either server mode.
	tb := newTestbedWith(t, s, 1, 0, pbs.ServerParams{
		Processing: time.Millisecond, Shards: shards, RetainCompleted: retain,
	}, nil)
	checks := 0
	check := func(when string) {
		visited, live := tb.server.ActiveForTest()
		for i := 1; i < len(visited); i++ {
			if visited[i] <= visited[i-1] {
				t.Errorf("%s: active list not strictly ascending: %v", when, visited)
				break
			}
		}
		if !slices.Equal(visited, live) {
			t.Errorf("%s: compactActive visited %v, the live jobs are %v", when, visited, live)
		}
		checks++
	}
	tb.run(t, func(c *pbs.Client) {
		rng := sim.NewRNG(seed)
		submit := func() string {
			runFor := time.Duration(2+rng.Intn(6)) * time.Millisecond
			id, err := c.Submit(pbs.JobSpec{
				Name: "w", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Second,
				Script: func(env *pbs.JobEnv) { tb.s.Sleep(runFor) },
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
			return id
		}
		var held, all []string
		var mu sync.Mutex
		landed := tb.s.NewGate("burst")
		for op := 0; op < 120; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				all = append(all, submit())
			case k < 5: // three clients at once: on three workers when sharded, and still one order
				const clients, each = 3, 3
				runFor := time.Duration(2+rng.Intn(6)) * time.Millisecond
				pending := clients
				for i := 0; i < clients; i++ {
					cl := pbs.NewClient(tb.net, fmt.Sprintf("burst%d-%d", op, i), pbs.ServerEndpoint)
					tb.s.Go("burst", func() {
						defer cl.Close()
						for n := 0; n < each; n++ {
							id, err := cl.Submit(pbs.JobSpec{
								Name: "b", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Second,
								Script: func(env *pbs.JobEnv) { tb.s.Sleep(runFor) },
							})
							if err != nil {
								t.Errorf("Submit: %v", err)
							}
							mu.Lock()
							all = append(all, id)
							mu.Unlock()
						}
						mu.Lock()
						pending--
						mu.Unlock()
						landed.Broadcast()
					})
				}
				mu.Lock()
				for pending > 0 {
					landed.Wait(&mu)
				}
				mu.Unlock()
			case k < 7: // a job held the instant it is submitted cannot have started
				id := submit()
				all = append(all, id)
				if err := c.Hold(id); err == nil {
					held = append(held, id)
				}
			case k < 8 && len(held) > 0: // deleted while queued: it never shows on a later walk
				i := rng.Intn(len(held))
				if err := c.Delete(held[i]); err != nil {
					t.Errorf("Delete: %v", err)
				}
				held = slices.Delete(held, i, i+1)
			case k < 9 && len(held) > 0:
				i := rng.Intn(len(held))
				if err := c.Release(held[i]); err != nil {
					t.Errorf("Release: %v", err)
				}
				held = slices.Delete(held, i, i+1)
			default:
				tb.s.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
			check(fmt.Sprintf("after op %d", op))
		}
		// The last records the window retains are the last to end: make
		// those the same jobs in both modes, a serial tail of completions.
		for _, id := range held {
			if err := c.Release(id); err != nil {
				t.Errorf("Release: %v", err)
			}
		}
		for i := 0; i < retain+2; i++ {
			all = append(all, submit())
		}
		for _, id := range all {
			c.Wait(id) // purged by now or not: either answer means it ended
			check("draining " + id)
		}
		tb.s.Sleep(200 * time.Millisecond) // a few more cycles: the tail crosses the purge boundary
		check("drained")
		if visited, _ := tb.server.ActiveForTest(); len(visited) != 0 {
			t.Errorf("active list holds %v after the drain", visited)
		}
		if st := tb.server.JobRecords(); st.Purged == 0 || st.Reused == 0 || st.Retained != retain {
			t.Errorf("retention idle: %+v", st)
		}
		rec.CaptureDigests()
	})
	if names := breachNames(rec); len(names) != 0 {
		t.Errorf("%d shards: breaches %v", shards, names)
	}
	for _, e := range rec.Events() {
		if e.Kind == audit.KindDigest && e.Subj == "pbs.jobs" {
			jobsDigest = e.A
		}
	}
	if checks < 150 || jobsDigest == 0 {
		t.Errorf("%d walks checked, digest %#x", checks, jobsDigest)
	}
	return jobsDigest
}
