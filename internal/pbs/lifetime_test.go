package pbs_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pbs"
)

// TestMessageRecordsLiveOnOneListAtATime runs static jobs and
// pbs_dynget/pbs_dynfree pairs, and takes a compute node down under a
// running job partway through (its messages are then dropped in flight).
// Before every delivery and in every task's epilogue it checks the
// records of the free lists (free.go): each sits on at most one list
// once, and none is held at the same time by a mom's op, a mom's job
// table or a task. No list ever holds more records than the peak number
// of messages in flight, and a last round of the same traffic leaves
// the daemons' lists no longer than the one before did: records come back
// and are reused instead of piling up.
func TestMessageRecordsLiveOnOneListAtATime(t *testing.T) {
	tb := ftTestbed(t, 4, 6)
	var moms []*pbs.Mom
	for _, h := range append(append([]string(nil), tb.cns...), tb.acs...) {
		moms = append(moms, tb.moms[h])
	}
	var clients []*pbs.Client // the front end's and the job scripts'

	checks, longest := 0, 0
	// check returns how many records the daemons' lists hold.
	check := func(held ...uintptr) (daemons int) {
		checks++
		on := make(map[uintptr]string)
		for list, recs := range pbs.FreeForTest(tb.server, moms, clients) {
			longest = max(longest, len(recs))
			if !strings.HasPrefix(list, "ifl/") {
				daemons += len(recs)
			}
			for _, r := range recs {
				if other, dup := on[r]; dup {
					t.Fatalf("record %#x is on %s and on %s", r, other, list)
				}
				on[r] = list
			}
		}
		for _, m := range moms {
			held = append(held, m.HeldForTest()...)
		}
		for _, r := range held {
			if list, ok := on[r]; ok {
				t.Fatalf("record %#x is held and on %s", r, list)
			}
		}
		return daemons
	}
	// tasks holds the StartTaskMsg each task runs from, by job and host,
	// as delivered; peak is the most messages sent and not yet delivered,
	// which is reached just before a delivery.
	tasks := make(map[string]*pbs.StartTaskMsg)
	var delivered, peak int64
	tb.net.Trace(func(m *netsim.Message) {
		peak = max(peak, tb.net.Stats().MessagesSent-delivered)
		delivered++
		if st, ok := m.Payload.(*pbs.StartTaskMsg); ok {
			tasks[st.JobID+"@"+m.To] = st
		}
		check()
	})
	for _, m := range moms {
		m.Epilogue = func(env *pbs.JobEnv) {
			st := tasks[env.JobID+"@"+pbs.MomEndpoint(env.Host)]
			if st == nil || st.JobID != env.JobID || st.Env != env {
				t.Fatalf("task %s@%s runs from %+v", env.JobID, env.Host, st)
			}
			check(reflect.ValueOf(st).Pointer())
		}
	}

	tb.run(t, func(c *pbs.Client) {
		clients = append(clients, c)
		done := false
		tb.s.Go("watchdog", func() { // a record lost to a bug hangs a job, and heartbeats keep time going
			tb.s.Sleep(time.Minute)
			if !done {
				t.Errorf("the run has not ended after a minute of virtual time")
				tb.net.Close()
			}
		})
		// The victim fills a compute node, which goes down under it.
		started := tb.s.NewGate("started")
		var mu sync.Mutex
		running := false
		victim, _ := c.Submit(pbs.JobSpec{Name: "victim", Owner: "u", Nodes: 1, PPN: 8, ACPN: 1, Walltime: time.Minute,
			Script: func(*pbs.JobEnv) {
				mu.Lock()
				running = true
				mu.Unlock()
				started.Broadcast()
				tb.s.Sleep(time.Hour)
			}})
		mu.Lock()
		for !running {
			started.Wait(&mu)
		}
		mu.Unlock()
		info, _ := c.Stat(victim)

		var ids []string
		submit := func() {
			for i := 0; i < 6; i++ { // one or two nodes, with an accelerator or not
				id, err := c.Submit(pbs.JobSpec{Name: "static", Owner: "u", Nodes: 1 + i%2, PPN: 2, ACPN: i % 3 % 2, Walltime: time.Minute,
					Script: func(*pbs.JobEnv) { tb.s.Sleep(30 * time.Millisecond) }})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ids = append(ids, id)
			}
			for i := 0; i < 2; i++ { // three pbs_dynget/pbs_dynfree pairs
				id, err := c.Submit(pbs.JobSpec{Name: "dyn", Owner: "u", Nodes: 1, PPN: 2, Walltime: time.Minute,
					Script: func(env *pbs.JobEnv) {
						dc := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
						defer dc.Close()
						clients = append(clients, dc)
						for k := 0; k < 3; k++ {
							g, err := dc.DynGet(env.JobID, env.Host, 1)
							if err != nil {
								continue // all accelerators taken: rejected
							}
							tb.s.Sleep(10 * time.Millisecond)
							if err := dc.DynFree(env.JobID, g.ClientID); err != nil {
								t.Errorf("DynFree: %v", err)
							}
						}
					}})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ids = append(ids, id)
			}
		}
		submit()
		tb.s.Sleep(100 * time.Millisecond)
		tb.net.SetHostDown(info.Hosts[0], true)
		for _, id := range ids {
			if final, err := c.Wait(id); err != nil || final.State != pbs.JobCompleted {
				t.Fatalf("job %s: %v, %v", id, final.State, err)
			}
		}
		if final, _ := c.Wait(victim); final.State != pbs.JobFailed {
			t.Fatalf("victim: %v, want failed", final.State)
		}
		// Two more rounds: the first one finds the cluster as the failure
		// left it, the second must find every record it needs on a list.
		var after [2]int
		for round := range after {
			ids = ids[:0]
			submit()
			for _, id := range ids {
				if final, err := c.Wait(id); err != nil || final.State != pbs.JobCompleted {
					t.Fatalf("job %s: %v, %v", id, final.State, err)
				}
			}
			tb.s.Sleep(100 * time.Millisecond) // the last releases and disjoins land
			after[round] = check()
		}
		done = true
		t.Logf("the daemons' lists hold %d records after one more round, %d after two, the longest %d; peak %d messages in flight; %d checks",
			after[0], after[1], longest, peak, checks)
		if int64(longest) > peak {
			t.Errorf("a list holds %d records, more than the %d messages ever in flight at once", longest, peak)
		}
		if after[1] > after[0] {
			t.Errorf("the daemons' lists grew from %d to %d records over a round of the same traffic", after[0], after[1])
		}
	})
	if tb.net.Stats().Dropped == 0 {
		t.Error("no message was dropped: the down host took nothing with it")
	}
}
