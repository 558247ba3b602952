package pbs_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/pbs"
	"repro/internal/sim"
)

// A misbehaving client cannot grow the server's error log without
// bound: after 1,000 AllocCmds for unknown jobs Errors holds the newest
// 256 messages, the last one naming the last command.
func TestErrorLogKeepsTheNewestMessages(t *testing.T) {
	const sent, kept = 1000, 256
	tb := newTestbed(t, 1, 0, nil)
	err := tb.s.Run(func() {
		defer tb.net.Close()
		tb.server.Start() // no scheduler: the test sends the commands
		ep := tb.net.Endpoint("sched")
		for i := 0; i < sent; i++ {
			if err := ep.Send(pbs.ServerEndpoint, "pbs", &pbs.AllocCmd{JobID: "ghost" + strconv.Itoa(i)}, 0); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		tb.s.Sleep(2 * sent * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	errs := tb.server.Errors()
	for i, msg := range errs {
		if want := "AllocCmd for job ghost" + strconv.Itoa(sent-len(errs)+i) + " in invalid state"; msg != want {
			t.Fatalf("%d messages; message %d is %q, want %q", len(errs), i, msg, want)
		}
	}
	if len(errs) != kept {
		t.Fatalf("%d messages after %d refused commands, want the newest %d", len(errs), sent, kept)
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
