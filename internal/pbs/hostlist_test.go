package pbs_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// A placement is a set of ordered lists (DESIGN.md §10), so everything
// the server does host by host — commit, release, tell the moms, name
// the node that was not free — it does in one order every run. The
// tests below repeat a run whose order used to come out of a map.

// recording is what a run leaves behind for somebody to compare.
type recording struct {
	events []audit.Event
	text   string // Server.Errors() and the accounting log
}

func record(t *testing.T, nCN, nAC int, fn func(tb *testbed, c *pbs.Client)) recording {
	t.Helper()
	rec := audit.New(1 << 10) // a run records a few hundred events
	s := sim.New()
	s.SetAudit(rec)
	tb := newTestbedOn(t, s, nCN, nAC, nil)
	runTolerant(t, tb, func(c *pbs.Client) { fn(tb, c) })
	var text bytes.Buffer
	for _, e := range tb.server.Errors() {
		text.WriteString(e + "\n")
	}
	if err := pbs.WriteAccountingLog(&text, tb.server.AccountingLog()); err != nil {
		t.Fatalf("WriteAccountingLog: %v", err)
	}
	if rec.Breaches() != 0 {
		t.Fatalf("%d invariant breaches", rec.Breaches())
	}
	if rec.Dropped() != 0 {
		t.Fatalf("the recorder dropped %d events", rec.Dropped())
	}
	return recording{events: rec.Events(), text: text.String()}
}

// sameEveryRun repeats a scenario and holds every repeat to the first.
func sameEveryRun(t *testing.T, nCN, nAC int, fn func(tb *testbed, c *pbs.Client)) recording {
	t.Helper()
	first := record(t, nCN, nAC, fn)
	for run := 1; run < 20; run++ {
		got := record(t, nCN, nAC, fn)
		if d := audit.Diff(first.events, got.events, 2); d != nil {
			var b strings.Builder
			_ = audit.WriteDivergence(&b, d, "run 0", "this run")
			t.Fatalf("run %d recorded something else:\n%s", run, b.String())
		}
		if got.text != first.text {
			t.Fatalf("run %d logged something else:\n%s\nrun 0:\n%s", run, got.text, first.text)
		}
	}
	return first
}

func submitAndWait(t *testing.T, c *pbs.Client, spec pbs.JobSpec) {
	t.Helper()
	id, err := c.Submit(spec)
	if err != nil {
		t.Errorf("Submit: %v", err)
		return
	}
	if info, err := c.Wait(id); err != nil || info.State != pbs.JobCompleted {
		t.Errorf("Wait: state %v, err %v", info.State, err)
	}
}

func TestMultiNodeAcceleratorJobRecordsTheSameEveryRun(t *testing.T) {
	first := sameEveryRun(t, 4, 8, func(tb *testbed, c *pbs.Client) {
		submitAndWait(t, c, pbs.JobSpec{Name: "wide", Owner: "u", Nodes: 4, PPN: 1, ACPN: 2, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(time.Duration(env.Rank+1) * 10 * time.Millisecond) }})
	})
	// The order is the placement's: compute nodes, then each one's
	// accelerators.
	var allocs, releases []string
	for _, e := range first.events {
		switch e.Kind {
		case audit.KindAlloc:
			allocs = append(allocs, e.Subj)
		case audit.KindRelease:
			releases = append(releases, e.Subj)
		}
	}
	want := "cn0 cn1 cn2 cn3 ac0 ac1 ac2 ac3 ac4 ac5 ac6 ac7"
	if got := strings.Join(allocs, " "); got != want {
		t.Errorf("committed in order %s, want %s", got, want)
	}
	if got := strings.Join(releases, " "); got != want {
		t.Errorf("released in order %s, want %s", got, want)
	}
}

func TestJobEndingWithLiveDynamicSetsRecordsTheSameEveryRun(t *testing.T) {
	first := sameEveryRun(t, 1, 6, func(tb *testbed, c *pbs.Client) {
		submitAndWait(t, c, pbs.JobSpec{Name: "keeper", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				defer cl.Close()
				for _, n := range []int{2, 3} { // never freed: the job's end releases them
					if _, err := cl.DynGet(env.JobID, env.Host, n); err != nil {
						t.Errorf("DynGet: %v", err)
					}
				}
			}})
	})
	var releases []string
	for _, e := range first.events {
		if e.Kind == audit.KindRelease {
			releases = append(releases, e.Subj)
		}
	}
	if got, want := strings.Join(releases, " "), "cn0 ac0 ac1 ac2 ac3 ac4"; got != want {
		t.Errorf("released in order %s, want %s (sets by ascending client id)", got, want)
	}
}

// An AllocCmd that cannot be honoured is refused naming the first node,
// in placement order, that is not available.
func TestRefusedAllocCmdNamesTheSameNodeEveryRun(t *testing.T) {
	for run := 0; run < 20; run++ {
		tb := newTestbed(t, 2, 4, nil)
		err := tb.s.Run(func() {
			defer tb.net.Close()
			tb.server.Start() // no scheduler: the test places the job itself
			c := pbs.NewClient(tb.net, "front", pbs.ServerEndpoint)
			id, err := c.Submit(pbs.JobSpec{Name: "j", Owner: "u", Nodes: 2, PPN: 1, ACPN: 2})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			cmd := pbs.AllocCmd{JobID: id, Hosts: []string{"cn0", "cn1"},
				AccHosts: [][]string{{"ac0", "gone1"}, {"gone2", "gone3"}}}
			if err := tb.net.Endpoint("sched").Send(pbs.ServerEndpoint, "pbs", cmd, 0); err != nil {
				t.Errorf("Send: %v", err)
			}
			tb.s.Sleep(10 * time.Millisecond)
			if info, err := c.Stat(id); err != nil || info.State != pbs.JobQueued || len(info.Hosts) != 0 {
				t.Errorf("after a refused AllocCmd: %+v, err %v", info, err)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		errs := tb.server.Errors()
		if len(errs) != 1 || !strings.HasSuffix(errs[0], "accelerator gone1 unavailable") {
			t.Fatalf("run %d: server errors %q, want one naming gone1", run, errs)
		}
	}
}

// held is a host list somebody was handed, with what it read then.
type held struct {
	who  string
	list []string // the very slice, up to its capacity
	was  []string
}

func hold(who string, list []string) held {
	list = list[:cap(list)]
	return held{who: who, list: list, was: slices.Clone(list)}
}

// TestHostListsAreNeverWrittenOnceBuilt: whatever happens to a job's
// host set — an accelerator lost, a dynamic set added, released, added
// again, a sister lost — whoever was handed a list before still reads
// what it read then, up to the capacity of the array behind it, and the
// server and the mother superior move on to new lists.
func TestHostListsAreNeverWrittenOnceBuilt(t *testing.T) {
	tb := newTestbedOn(t, sim.New(), 2, 8, nil)
	var holds []held
	check := func(when string) {
		t.Helper()
		for _, h := range holds {
			if !slices.Equal(h.list, h.was) {
				t.Errorf("%s: the list %s holds reads %q, was %q", when, h.who, h.list, h.was)
			}
		}
	}
	momHosts := func(host, id string) []string { return tb.moms[host].HostsForTest(id) }
	settle := func() { tb.s.Sleep(50 * time.Millisecond) }

	runTolerant(t, tb, func(c *pbs.Client) {
		envs := make([]*pbs.JobEnv, 2)
		script := func(env *pbs.JobEnv) {
			envs[env.Rank] = env
			tb.s.Sleep(time.Hour) // until the job fails under it
		}
		id, err := c.Submit(pbs.JobSpec{Name: "j", Owner: "u", Nodes: 2, PPN: 1, ACPN: 2, Walltime: 2 * time.Hour, Script: script})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		settle()
		if envs[0] == nil || envs[1] == nil {
			t.Errorf("tasks not running: %v", envs)
			return
		}
		stat := func() pbs.JobInfo {
			info, err := c.Stat(id)
			if err != nil {
				t.Errorf("Stat: %v", err)
			}
			return info
		}
		early := stat()
		for rank, env := range envs {
			holds = append(holds, hold("script "+env.Host+" (Hosts)", env.Hosts), hold("script "+env.Host+" (AccHosts)", env.AccHosts))
			holds = append(holds, hold("an earlier Stat (AccHosts)", early.AccHosts[rank]))
		}
		holds = append(holds, hold("an earlier Stat (Hosts)", early.Hosts),
			hold("the sister", momHosts("cn1", id)), hold("the mother superior, at first", momHosts("cn0", id)))
		if want := "cn0 cn1 ac0 ac1 ac2 ac3"; strings.Join(momHosts("cn0", id), " ") != want {
			t.Errorf("mother superior holds %q, want %s", momHosts("cn0", id), want)
		}

		// An accelerator of the mother superior's own set dies.
		tb.server.NodeDownForTest("ac1")
		settle()
		check("after losing ac1")
		if now := stat(); !slices.Equal(now.AccHosts[0], []string{"ac0"}) || !slices.Equal(now.AccHosts[1], []string{"ac2", "ac3"}) {
			t.Errorf("server lists %q after losing ac1", now.AccHosts)
		}
		if want := "cn0 cn1 ac0 ac2 ac3"; strings.Join(momHosts("cn0", id), " ") != want {
			t.Errorf("mother superior holds %q after losing ac1, want %s", momHosts("cn0", id), want)
		}

		// Grow, shrink, grow: every step installs a new list, and the
		// one a release leaves behind has room to spare — nobody may
		// append into it.
		cl := pbs.NewClient(tb.net, "cn0", pbs.ServerEndpoint)
		defer cl.Close()
		for round := 0; round < 2; round++ {
			grant, err := cl.DynGet(id, "cn0", 2)
			if err != nil {
				t.Errorf("DynGet: %v", err)
				return
			}
			settle()
			holds = append(holds, hold("the grant", grant.Hosts), hold("the mother superior, grown", momHosts("cn0", id)),
				hold("the sister, told of the growth", momHosts("cn1", id)))
			check("after a dynamic grant")
			if round == 0 {
				if err := cl.DynFree(id, grant.ClientID); err != nil {
					t.Errorf("DynFree: %v", err)
				}
				settle()
				shrunk := hold("the mother superior, shrunk", momHosts("cn0", id))
				if len(shrunk.list) == len(momHosts("cn0", id)) {
					t.Errorf("the list a release leaves has no spare capacity: the test shows nothing")
				}
				holds = append(holds, shrunk)
				check("after a dynamic release")
			}
		}
		if want := "cn0 cn1 ac0 ac2 ac3 ac4 ac5"; strings.Join(momHosts("cn0", id), " ") != want {
			t.Errorf("mother superior holds %q at the end, want %s", momHosts("cn0", id), want)
		}

		// The sister dies: the job fails, and still nobody's list moves.
		tb.server.NodeDownForTest("cn1")
		settle()
		check("after losing the sister")
		if now := stat(); now.State != pbs.JobFailed {
			t.Errorf("job is %v after losing a compute node, want failed", now.State)
		}
	})
}
