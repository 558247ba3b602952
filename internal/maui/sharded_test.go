package maui

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// On a sharded server the scheduler's snapshot is answered on the
// station that took its commands, so each snapshot holds every
// placement sent before it. A burst of jobs submitted at one instant,
// six to a node and more than fit, drains through a scheduler at
// Partitions 4 on four shards with no refused command: every job is
// placed once, its hosts are allocated once, and no job placed in a
// cycle is still queued in the next cycle's mirror.
func TestShardedSnapshotHoldsTheSchedulersCommands(t *testing.T) {
	const nCN, perNode = 16, 6
	mp := DefaultParams()
	mp.CycleInterval = 50 * time.Millisecond
	mp.CycleOverhead = 2 * time.Millisecond
	mp.PerJobCost = 200 * time.Microsecond
	mp.Partitions = 4
	rec := audit.New(1 << 16)
	tr := trace.New()
	s := sim.New()
	s.SetAudit(rec)
	s.SetTracer(tr)
	b := newSyncBedOn(s, nCN, 0, true, pbs.ServerParams{Processing: time.Millisecond, Shards: 4}, mp)
	b.server.SetScheduler(b.sc.Endpoint())

	// Each cycle, once its answer is in the mirror, looks up the jobs
	// the previous cycle placed (its place spans, ended since).
	read, cycles, checked := 0, 0, 0
	var stale []string
	b.sc.auditAfterCycle = func() {
		cycles++
		evs := tr.Events()
		for _, e := range evs[read:] {
			if e.Name != "place" {
				continue
			}
			for _, kv := range e.Args {
				if kv.Key != "job" {
					continue
				}
				checked++
				if j := b.sc.view.Job(kv.Value); j != nil && j.Phase == pbs.PhaseQueued {
					stale = append(stale, fmt.Sprintf("cycle %d: %s", cycles, kv.Value))
				}
			}
		}
		read = len(evs)
	}

	const n = nCN * perNode
	ids := make([]string, n)
	infos := make([]pbs.JobInfo, n)
	b.run(t, func() {
		b.sc.Start()
		for i := range ids {
			b.s.Go(fmt.Sprintf("submit%d", i), func() {
				c := pbs.NewClient(b.net, fmt.Sprintf("front%d", i), pbs.ServerEndpoint)
				id, err := c.Submit(pbs.JobSpec{Name: "burst", Owner: fmt.Sprintf("u%d", i%5),
					Nodes: 1 + i%3/2, PPN: 2 + 2*(i%4), Walltime: time.Second,
					Script: func(*pbs.JobEnv) { b.s.Sleep(time.Duration(10+i%7*5) * time.Millisecond) }})
				if err != nil {
					t.Error(err)
				}
				ids[i] = id
			})
		}
		b.s.Sleep(100 * time.Millisecond)
		c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
		for i, id := range ids {
			info, err := c.Wait(id)
			if err != nil || info.State != pbs.JobCompleted {
				t.Fatalf("job %q: %v, %v", id, info.State, err)
			}
			infos[i] = info
		}
	})

	if errs := b.server.Errors(); len(errs) > 0 {
		t.Errorf("%d server errors, first %q", len(errs), errs[0])
	}
	if st := b.sc.Stats(); st.JobsPlaced != n {
		t.Errorf("%d placements for %d jobs", st.JobsPlaced, n)
	}
	allocs := map[string][]string{} // job -> hosts allocated, in record order
	for _, e := range rec.Events() {
		if e.Kind == audit.KindAlloc {
			allocs[e.Detail] = append(allocs[e.Detail], e.Subj)
		}
	}
	for _, info := range infos {
		if got := allocs[info.ID]; !slices.Equal(got, info.Hosts) {
			t.Errorf("job %s: hosts allocated %v, ran on %v", info.ID, got, info.Hosts)
		}
	}
	if checked != n {
		t.Errorf("looked up %d placements in a later snapshot, want %d", checked, n)
	}
	if len(stale) > 0 {
		t.Errorf("%d jobs still queued in the snapshot after the cycle that placed them, first %s", len(stale), stale[0])
	}
}
