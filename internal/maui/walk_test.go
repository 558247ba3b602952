package maui

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// walkJob is one job of the probed queue: the examination (step) of the
// walk that places it in the static cycle and in the FIFO ablation (0:
// examined, never placed), whether the static placement is a backfill,
// and the fairshare usage a placement charges its owner.
type walkJob struct {
	name, owner    string
	nodes, ppn     int
	walltime       time.Duration
	priority       int
	step, fifoStep int
	backfill       bool
	charge         float64
}

// walkQueue is submitted in priority order, so the static walk and the
// FIFO ablation examine it in the same order. Two 8-core nodes, one of
// them held by a long job: "first" fits beside it, "head" is blocked
// and sets the backfill reservation at the long job's end, and behind
// it only "bf" may backfill: "nowall" has no walltime, "toolong" and
// "tail" would end past the reservation, "toobig" does not fit. The
// ablation has no reservation: it places whatever fits.
var walkQueue = []walkJob{
	{name: "first", owner: "a", nodes: 1, ppn: 4, walltime: time.Second, priority: 100, step: 1, fifoStep: 1, charge: 1},
	{name: "head", owner: "c", nodes: 2, ppn: 8, walltime: time.Second, priority: 90},
	{name: "nowall", owner: "c", nodes: 1, ppn: 1, priority: 80, fifoStep: 3, charge: 1},
	{name: "toolong", owner: "c", nodes: 1, ppn: 1, walltime: 100 * time.Second, priority: 70, fifoStep: 4, charge: 100},
	{name: "toobig", owner: "c", nodes: 1, ppn: 8, walltime: time.Second, priority: 60},
	{name: "bf", owner: "b", nodes: 1, ppn: 2, walltime: time.Second, priority: 50, step: 6, fifoStep: 6, backfill: true, charge: 1},
	{name: "tail", owner: "c", nodes: 1, ppn: 1, walltime: 100 * time.Second, priority: 40},
}

// A placement the walk makes becomes visible — to Stats, Usage, the
// maui.placed counter and the server — at the virtual instant of the
// examination that made it, not a nanosecond earlier or later, however
// the walk charges its per-job cost. Probes run at every step boundary
// of the walk, on it and one nanosecond either side (a probe queued
// before the walk began runs ahead of the walk's own wake at that
// instant, so it still reads the state before the step).
func TestWalkWritesLandAtTheirStep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dynTop bool
	}{
		{"static", true},
		{"fifo", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Long enough a step for the server to be idle again when the
			// next step's AllocCmd lands.
			const cost = 5 * time.Millisecond
			mp := DefaultParams()
			mp.CycleOverhead = time.Millisecond
			mp.PerJobCost = cost
			mp.QueueTimeWeight, mp.FairshareWeight, mp.FairshareDecay = 0, 0, 0
			mp.DynTopPriority = tc.dynTop
			rec := audit.New(1 << 16)
			reg := telemetry.New()
			s := sim.New()
			s.SetAudit(rec)
			s.SetTelemetry(reg)
			b := newSyncBedOn(s, 2, 0, true, pbs.ServerParams{Processing: 500 * time.Microsecond}, mp)
			placedCtr := reg.Counter("maui.placed")
			stepOf := func(j walkJob) int {
				if tc.dynTop {
					return j.step
				}
				return j.fifoStep
			}
			steps := len(walkQueue) + 1
			offsets := []time.Duration{-1, 0, 1}
			line := func(k int, off time.Duration, placed, backfilled, counter int64, a, b, c float64) string {
				return fmt.Sprintf("step %d%+dns: placed %d backfilled %d counter %d usage a=%g b=%g c=%g",
					k, off, placed, backfilled, counter, a, b, c)
			}

			var walkStart time.Duration
			var got []string
			ids := map[string]string{}
			b.run(t, func() {
				c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
				long, err := c.Submit(pbs.JobSpec{Name: "long", Owner: "z", Nodes: 1, PPN: 8, Walltime: 10 * time.Second,
					Script: func(*pbs.JobEnv) { b.s.Sleep(5 * time.Second) }})
				if err != nil {
					t.Fatal(err)
				}
				b.sc.RunCycleOnce()
				b.s.Sleep(10 * time.Millisecond)
				if st, _ := c.Stat(long); st.State != pbs.JobRunning {
					t.Fatalf("the long job is %v, want running", st.State)
				}
				for _, j := range walkQueue {
					id, err := c.Submit(pbs.JobSpec{Name: j.name, Owner: j.owner, Nodes: j.nodes, PPN: j.ppn,
						Walltime: j.walltime, Priority: j.priority, Script: func(*pbs.JobEnv) { b.s.Sleep(time.Second) }})
					if err != nil {
						t.Fatal(err)
					}
					ids[j.name] = id
				}
				// Once the cycle holds its answer, the walk begins one
				// overhead later: queue the probes from there.
				b.sc.auditAfterCycle = func() {
					b.sc.auditAfterCycle = nil
					walkStart = b.s.Now() + mp.CycleOverhead
					for k := 0; k <= steps; k++ {
						for _, off := range offsets {
							b.s.At(walkStart+time.Duration(k)*cost+off, func() {
								st := b.sc.Stats()
								got = append(got, line(k, off, st.JobsPlaced, st.Backfilled, placedCtr.Value(),
									b.sc.Usage("a"), b.sc.Usage("b"), b.sc.Usage("c")))
							})
						}
					}
				}
				b.sc.RunCycleOnce()
				if want := walkStart + time.Duration(len(walkQueue))*cost; b.s.Now() != want {
					t.Errorf("walk ended at %v, want %v", b.s.Now(), want)
				}
				b.s.Sleep(50 * time.Millisecond)
			})

			// Each probe reads the placements of the steps before it, and
			// of its own step once past the boundary.
			var want []string
			for k := 0; k <= steps; k++ {
				for _, off := range offsets {
					placed, backfilled := int64(1), int64(0) // the long job
					usage := map[string]float64{}
					for _, j := range walkQueue {
						if step := stepOf(j); step == 0 || step > k || step == k && off <= 0 {
							continue
						}
						placed++
						if j.backfill && tc.dynTop {
							backfilled++
						}
						usage[j.owner] += j.charge
					}
					want = append(want, line(k, off, placed, backfilled, placed, usage["a"], usage["b"], usage["c"]))
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("probes read\n%v\nwant\n%v", got, want)
			}

			// The server commits each AllocCmd one link latency (200µs)
			// plus its processing time (500µs) after the step that sent it.
			committed := map[string]time.Duration{}
			for _, e := range rec.Events() {
				if _, seen := committed[e.Detail]; e.Kind == audit.KindAlloc && !seen {
					committed[e.Detail] = e.VT
				}
			}
			for _, j := range walkQueue {
				step := stepOf(j)
				at, ok := committed[ids[j.name]]
				if step == 0 {
					if ok {
						t.Errorf("%s: committed at %v, but the walk never places it", j.name, at)
					}
					continue
				}
				if end := walkStart + time.Duration(step)*cost; at != end+700*time.Microsecond {
					t.Errorf("%s: committed at %v, want step %d's end %v + 700µs", j.name, at, step, end)
				}
			}
		})
	}
}

// A walk whose head has blocked keeps charging one examination per job
// to the end of the queue, whether or not any job behind the head can
// still start. Here the cluster fills up behind the head (with
// backfill) or nothing may pass it (without), 30 jobs wait behind it
// and three of them have an allocation still in flight. The cycle must
// end, place, charge fairshare and have its allocations committed
// exactly where one examination per queued job, in-flight ones free,
// puts them.
func TestBlockedWalkChargesEveryJobBehindTheHead(t *testing.T) {
	for _, backfill := range []bool{true, false} {
		t.Run(fmt.Sprintf("backfill=%v", backfill), func(t *testing.T) {
			const cost, tail = 5 * time.Millisecond, 30
			inflight := map[int]bool{2: true, 11: true, 25: true}
			mp := DefaultParams()
			mp.CycleOverhead = time.Millisecond
			mp.PerJobCost = cost
			mp.Backfill = backfill
			mp.QueueTimeWeight, mp.FairshareWeight, mp.FairshareDecay = 0, 0, 0
			rec := audit.New(1 << 16)
			s := sim.New()
			s.SetAudit(rec)
			b := newSyncBedOn(s, 2, 0, true, pbs.ServerParams{Processing: 500 * time.Microsecond}, mp)
			var walkStart, walkEnd time.Duration
			var st Stats
			ids := map[string]string{}
			usage := map[string]float64{}
			b.run(t, func() {
				c := pbs.NewClient(b.net, "front", pbs.ServerEndpoint)
				submit := func(name, owner string, nodes, ppn, prio int) string {
					id, err := c.Submit(pbs.JobSpec{Name: name, Owner: owner, Nodes: nodes, PPN: ppn,
						Walltime: time.Second, Priority: prio, Script: func(*pbs.JobEnv) { b.s.Sleep(time.Second) }})
					if err != nil {
						t.Fatal(err)
					}
					ids[name] = id
					return id
				}
				long, err := c.Submit(pbs.JobSpec{Name: "long", Owner: "z", Nodes: 1, PPN: 8, Walltime: 10 * time.Second,
					Script: func(*pbs.JobEnv) { b.s.Sleep(5 * time.Second) }})
				if err != nil {
					t.Fatal(err)
				}
				b.sc.RunCycleOnce()
				b.s.Sleep(10 * time.Millisecond)
				if st, _ := c.Stat(long); st.State != pbs.JobRunning {
					t.Fatalf("the long job is %v, want running", st.State)
				}
				submit("first", "a", 1, 4, 100)
				submit("head", "c", 2, 8, 90)
				submit("bf", "b", 1, 4, 80)
				for i := 0; i < tail; i++ {
					id := submit(fmt.Sprintf("q%d", i), fmt.Sprintf("q%d", i%3), 1, 1, 70-i)
					if inflight[i] {
						b.sc.inflight[id] = b.sc.cycleIndex // an AllocCmd of the last cycle the server has yet to apply
					}
				}
				b.sc.auditAfterCycle = func() {
					b.sc.auditAfterCycle = nil
					walkStart = b.s.Now() + mp.CycleOverhead
				}
				b.sc.RunCycleOnce()
				walkEnd = b.s.Now()
				st = b.sc.Stats()
				for _, o := range []string{"a", "b", "c", "q0", "q1", "q2"} {
					usage[o] = b.sc.Usage(o)
				}
				b.s.Sleep(50 * time.Millisecond)
			})

			// first, head, bf, then every job of the tail but the three in flight.
			steps := 3 + tail - len(inflight)
			if want := walkStart + time.Duration(steps)*cost; walkEnd != want {
				t.Errorf("walk ended at %v, want %v (%d steps)", walkEnd, want, steps)
			}
			placed := map[string]int{"first": 1} // step of each placement
			wantUsage := map[string]float64{"a": 1}
			if backfill {
				placed["bf"] = 3
				wantUsage["b"] = 1
			}
			if st.JobsPlaced != int64(1+len(placed)) || st.Backfilled != int64(len(placed)-1) {
				t.Errorf("stats: %d placed, %d backfilled; want %d and %d", st.JobsPlaced, st.Backfilled, 1+len(placed), len(placed)-1)
			}
			for o, u := range usage {
				if u != wantUsage[o] {
					t.Errorf("usage of %s is %g, want %g", o, u, wantUsage[o])
				}
			}
			committed := map[string]time.Duration{}
			for _, e := range rec.Events() {
				if _, seen := committed[e.Detail]; e.Kind == audit.KindAlloc && !seen {
					committed[e.Detail] = e.VT
				}
			}
			for name, id := range ids {
				at, ok := committed[id]
				step, want := placed[name]
				switch {
				case ok != want:
					t.Errorf("%s: committed %v, want %v", name, ok, want)
				case want && at != walkStart+time.Duration(step)*cost+700*time.Microsecond:
					t.Errorf("%s: committed at %v, want step %d's end + 700µs", name, at, step)
				}
			}
		})
	}
}
