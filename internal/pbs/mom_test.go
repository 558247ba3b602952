package pbs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// White-box tests of the mom's message handling, driving it with raw
// protocol messages.

func momHarness(t *testing.T) (*sim.Simulation, *netsim.Network, *Mom, *netsim.Endpoint) {
	t.Helper()
	s := sim.New()
	net := netsim.New(s, netsim.LinkParams{Latency: 100 * time.Microsecond})
	m := NewMom(net, "cn0", MomParams{JoinCost: time.Millisecond, DynJoinCost: time.Millisecond})
	driver := net.Endpoint("driver")
	// The driver poses as both the server and peer moms.
	net.Endpoint(ServerEndpoint)
	return s, net, m, driver
}

func TestMomJoinAckRoundTrip(t *testing.T) {
	s, net, m, driver := momHarness(t)
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		driver.Send(MomEndpoint("cn0"), "pbs",
			&JoinJobMsg{JobID: "j1", MS: "cnX", Hosts: []string{"cnX", "cn0"}, ReplyTo: driver.Name()}, 0)
		msg, err := driver.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		ack, ok := msg.Payload.(*JoinAck)
		if !ok || ack.JobID != "j1" || ack.Host != "cn0" {
			t.Fatalf("ack = %#v", msg.Payload)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMomDynJoinAndDisjoin(t *testing.T) {
	s, net, m, driver := momHarness(t)
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		driver.Send(MomEndpoint("cn0"), "pbs",
			&DynJoinJobMsg{JobID: "j2", ReplyTo: driver.Name()}, 0)
		msg, err := driver.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if ack, ok := msg.Payload.(*DynJoinAck); !ok || ack.Host != "cn0" {
			t.Fatalf("ack = %#v", msg.Payload)
		}
		_, joined := m.jobs["j2"]
		if !joined {
			t.Fatal("mom did not record the job after DYNJOIN")
		}

		driver.Send(MomEndpoint("cn0"), "pbs", &DisJoinJobMsg{JobID: "j2", ReplyTo: driver.Name()}, 0)
		msg, err = driver.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if ack, ok := msg.Payload.(*DisJoinAck); !ok || ack.JobID != "j2" {
			t.Fatalf("ack = %#v", msg.Payload)
		}
		_, still := m.jobs["j2"]
		if still {
			t.Fatal("mom kept the job after DISJOIN")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMomUpdateJobRefreshesHosts(t *testing.T) {
	s, net, m, driver := momHarness(t)
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		driver.Send(MomEndpoint("cn0"), "pbs",
			&JoinJobMsg{JobID: "j3", MS: "cnX", Hosts: []string{"cnX", "cn0"}, ReplyTo: driver.Name()}, 0)
		driver.Recv()
		driver.Send(MomEndpoint("cn0"), "pbs",
			&UpdateJobMsg{JobID: "j3", Hosts: []string{"cnX", "cn0", "ac9"}}, 0)
		s.Sleep(10 * time.Millisecond)
		hosts := append([]string(nil), m.jobs["j3"].hosts...)
		if len(hosts) != 3 || hosts[2] != "ac9" {
			t.Fatalf("hosts = %v", hosts)
		}

		// NodeLostMsg removes a host again.
		driver.Send(MomEndpoint("cn0"), "pbs", &NodeLostMsg{JobID: "j3", Host: "ac9"}, 0)
		s.Sleep(10 * time.Millisecond)
		hosts = append([]string(nil), m.jobs["j3"].hosts...)
		if len(hosts) != 2 {
			t.Fatalf("hosts after loss = %v", hosts)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMomReleaseRemovesJob(t *testing.T) {
	s, net, m, driver := momHarness(t)
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		driver.Send(MomEndpoint("cn0"), "pbs",
			&JoinJobMsg{JobID: "j4", MS: "cnX", Hosts: nil, ReplyTo: driver.Name()}, 0)
		driver.Recv()
		driver.Send(MomEndpoint("cn0"), "pbs", &ReleaseJobMsg{JobID: "j4"}, 0)
		s.Sleep(10 * time.Millisecond)
		_, still := m.jobs["j4"]
		if still {
			t.Fatal("mom kept the job after release")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMomStartTaskRunsScriptAndReportsDone(t *testing.T) {
	s, net, m, driver := momHarness(t)
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		ran := false
		env := &JobEnv{JobID: "j5", Host: "cn0", MSHost: "cnX"}
		// The driver poses as the MS mom of host cnX.
		ms := net.Endpoint(MomEndpoint("cnX"))
		driver.Send(MomEndpoint("cn0"), "pbs", &StartTaskMsg{
			JobID:  "j5",
			Env:    env,
			Script: func(e *JobEnv) { ran = true },
		}, 0)
		msg, err := ms.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		done, ok := msg.Payload.(*TaskDoneMsg)
		if !ok || done.JobID != "j5" || done.Host != "cn0" {
			t.Fatalf("done = %#v", msg.Payload)
		}
		if !ran {
			t.Fatal("script never ran")
		}
		// A nil script completes immediately too.
		driver.Send(MomEndpoint("cn0"), "pbs", &StartTaskMsg{JobID: "j6", Env: &JobEnv{Host: "cn0", MSHost: "cnX"}}, 0)
		if msg, err = ms.Recv(); err != nil || msg.Payload.(*TaskDoneMsg).JobID != "j6" {
			t.Fatalf("nil-script done = %#v, %v", msg.Payload, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMomHostAccessor(t *testing.T) {
	s := sim.New()
	net := netsim.New(s, netsim.LinkParams{})
	m := NewMom(net, "cn7", MomParams{})
	if m.Host() != "cn7" {
		t.Fatalf("Host = %q", m.Host())
	}
}

// fakeMoms stands plain endpoints in for the sister moms of hosts, so a
// test reads the mother superior's requests and answers them itself.
func fakeMoms(net *netsim.Network, hosts ...string) map[string]*netsim.Endpoint {
	eps := make(map[string]*netsim.Endpoint)
	for _, h := range hosts {
		eps[h] = net.Endpoint(MomEndpoint(h))
	}
	return eps
}

// drain empties ep's queue and names what it held, one "Type job" each.
func drain(ep *netsim.Endpoint) string {
	var got []string
	for ep.Pending() > 0 {
		msg, _ := ep.Recv()
		job := ""
		switch p := msg.Payload.(type) {
		case *JobStartedMsg:
			job = p.JobID
		case *JobDoneMsg:
			job = p.JobID
		case *DynAddAck:
			job = fmt.Sprintf("%s#%d", p.JobID, p.ReqID)
		case *JoinJobMsg:
			job = p.JobID
		case *DynJoinJobMsg:
			job = p.JobID
		case *DisJoinJobMsg:
			job = p.JobID
		case *UpdateJobMsg:
			job = p.JobID + strings.Join(p.Hosts, ",")
		case *StartTaskMsg:
			job = p.JobID
		}
		got = append(got, strings.TrimPrefix(fmt.Sprintf("%T %s", msg.Payload, job), "*pbs."))
	}
	return strings.Join(got, "; ")
}

// Two starts and three dynamic operations wait on one mother superior at
// once, and the acks come back interleaved across them: each operation
// runs its own tail at its own last ack, and no earlier.
func TestMomOpsRunTheirOwnTails(t *testing.T) {
	s, net, m, driver := momHarness(t)
	m.params.StartCost = time.Millisecond
	srv := net.Endpoint(ServerEndpoint)
	sis := fakeMoms(net, "cn1", "ac0", "ac1", "ac2", "ac3", "ac4", "ac5", "ac6")
	send := func(p any) { driver.Send(MomEndpoint("cn0"), "pbs", p, 0) }
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		// jC runs with ac3 and ac4, and its script is done.
		send(&RunJobMsg{JobID: "jC", Hosts: []string{"cn0"}, AccHosts: [][]string{{"ac3", "ac4"}}})
		s.Sleep(5 * time.Millisecond)
		for _, h := range []string{"ac3", "ac4"} {
			drain(sis[h])
			sis[h].Send(MomEndpoint("cn0"), "pbs", &JoinAck{JobID: "jC", Host: h}, 0)
		}
		s.Sleep(5 * time.Millisecond)
		if got, want := drain(srv), "JobStartedMsg jC; JobDoneMsg jC"; got != want {
			t.Fatalf("server got %q before the mix, want %q", got, want)
		}

		send(&RunJobMsg{JobID: "jA", Hosts: []string{"cn0", "cn1"}, AccHosts: [][]string{{"ac0"}, nil}})
		send(&RunJobMsg{JobID: "jB", Hosts: []string{"cn0"}, AccHosts: [][]string{{"ac1", "ac2"}}})
		send(&DynAddMsg{JobID: "jC", ReqID: 7, Hosts: []string{"ac5", "ac6"}, ReplyTo: ServerEndpoint})
		send(&DynRemoveMsg{JobID: "jC", Hosts: []string{"ac3"}})
		send(&DynRemoveMsg{JobID: "jC", Hosts: []string{"ac4"}})
		s.Sleep(5 * time.Millisecond)
		var first []string
		for _, h := range []string{"cn1", "ac0", "ac1", "ac2", "ac3", "ac4", "ac5", "ac6"} {
			first = append(first, h+": "+drain(sis[h]))
		}
		if got, want := strings.Join(first, " | "), "cn1: JoinJobMsg jA | ac0: JoinJobMsg jA | "+
			"ac1: JoinJobMsg jB | ac2: JoinJobMsg jB | ac3: DisJoinJobMsg jC | ac4: DisJoinJobMsg jC | "+
			"ac5: DynJoinJobMsg jC | ac6: "; got != want {
			t.Fatalf("first requests:\n got %s\nwant %s", got, want)
		}
		if len(m.waits) != 5 {
			t.Fatalf("%d ops waiting, want 5", len(m.waits))
		}

		// Each step acks one request; then the server and the sisters
		// must have heard exactly what that ack's tail sends, if any.
		steps := []struct {
			host string
			ack  any
			want string
		}{
			{"ac4", &DisJoinAck{JobID: "jC", Host: "ac4"}, "ac3: UpdateJobMsg jCcn0,ac3"},
			{"ac1", &JoinAck{JobID: "jB", Host: "ac1"}, ""},
			{"ac5", &DynJoinAck{JobID: "jC", Host: "ac5"}, "ac6: DynJoinJobMsg jC"},
			{"cn1", &JoinAck{JobID: "jA", Host: "cn1"}, ""},
			{"ac3", &DisJoinAck{JobID: "jC", Host: "ac3"}, ""},
			{"ac2", &JoinAck{JobID: "jB", Host: "ac2"}, "server: JobStartedMsg jB; JobDoneMsg jB"},
			{"ac6", &DynJoinAck{JobID: "jC", Host: "ac6"}, "server: DynAddAck jC#7"},
			{"ac0", &JoinAck{JobID: "jA", Host: "ac0"}, "server: JobStartedMsg jA | cn1: StartTaskMsg jA"},
		}
		for _, st := range steps {
			sis[st.host].Send(MomEndpoint("cn0"), "pbs", st.ack, 0)
			s.Sleep(5 * time.Millisecond)
			var heard []string
			if got := drain(srv); got != "" {
				heard = append(heard, "server: "+got)
			}
			for _, h := range []string{"cn1", "ac0", "ac1", "ac2", "ac3", "ac4", "ac5", "ac6"} {
				if got := drain(sis[h]); got != "" {
					heard = append(heard, h+": "+got)
				}
			}
			if got := strings.Join(heard, " | "); got != st.want {
				t.Errorf("after %T from %s: heard %q, want %q", st.ack, st.host, got, st.want)
			}
		}
		if got := m.HostsForTest("jC"); !slices.Equal(got, []string{"cn0", "ac5", "ac6"}) {
			t.Errorf("jC's hosts %v, want [cn0 ac5 ac6]", got)
		}
		if got := m.HostsForTest("jA"); !slices.Equal(got, []string{"cn0", "cn1", "ac0"}) {
			t.Errorf("jA's hosts %v, want [cn0 cn1 ac0]", got)
		}
		if n := len(m.waits); n != 0 {
			t.Errorf("%d ops still waiting", n)
		}
		if n := freeOps(m); n != 3 {
			t.Errorf("%d dynamic ops on the free list, want the 3 run", n)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func freeOps(m *Mom) int {
	n := 0
	for op := m.free; op != nil; op = op.next {
		n++
	}
	return n
}

// An ack nobody awaits — for an unknown job, from a host not asked, or
// again after its op has finished — is handed back and changes nothing;
// the op still waiting runs its tail at its own ack.
func TestMomDropsStrayAndDuplicateAcks(t *testing.T) {
	s, net, m, driver := momHarness(t)
	srv := net.Endpoint(ServerEndpoint)
	sis := fakeMoms(net, "ac0", "ac1")
	var acks []netsim.Message // copies: the fabric reuses its message after delivery
	net.Trace(func(msg *netsim.Message) {
		switch msg.Payload.(type) {
		case *JoinAck, *DynJoinAck, *DisJoinAck:
			acks = append(acks, *msg)
		}
	})
	var strays Outbox // the test's own lists, where a stray handed back shows
	err := s.Run(func() {
		defer net.Close()
		m.Start()
		driver.Send(MomEndpoint("cn0"), "pbs", &RunJobMsg{JobID: "j1", Hosts: []string{"cn0"}, AccHosts: [][]string{{"ac0"}}}, 0)
		s.Sleep(5 * time.Millisecond)
		drain(sis["ac0"])
		sis["ac0"].Send(MomEndpoint("cn0"), "pbs", &JoinAck{JobID: "j1", Host: "ac0"}, 0)
		driver.Send(MomEndpoint("cn0"), "pbs", &DynAddMsg{JobID: "j1", ReqID: 1, Hosts: []string{"ac1"}, ReplyTo: ServerEndpoint}, 0)
		s.Sleep(5 * time.Millisecond)
		if got := drain(srv) + " | " + drain(sis["ac1"]); got != "JobStartedMsg j1; JobDoneMsg j1 | DynJoinJobMsg j1" {
			t.Fatalf("before the strays: %q", got)
		}
		acks = nil
		for _, stray := range []any{
			Take(&strays, JoinAck{JobID: "j1", Host: "ac0"}),    // the finished start's, again
			Take(&strays, JoinAck{JobID: "nope", Host: "ac0"}),  // an unknown job's
			Take(&strays, DynJoinAck{JobID: "j1", Host: "ac0"}), // from a host the add did not ask
			Take(&strays, DynJoinAck{JobID: "j2", Host: "ac1"}), // another job's
			Take(&strays, DisJoinAck{JobID: "j1", Host: "ac0"}), // a removal nobody asked for
		} {
			sis["ac0"].Send(MomEndpoint("cn0"), "pbs", stray, 0)
		}
		s.Sleep(5 * time.Millisecond)
		if len(acks) != 5 {
			t.Fatalf("%d strays delivered, want 5", len(acks))
		}
		back := [3]int{len(strays[0].(*free[JoinAck, *JoinAck]).recs), len(strays[1].(*free[DynJoinAck, *DynJoinAck]).recs),
			len(strays[2].(*free[DisJoinAck, *DisJoinAck]).recs)}
		if back != [3]int{2, 2, 1} {
			t.Errorf("handed back %v of the strays of each kind, want [2 2 1]", back)
		}
		if got := drain(srv); got != "" {
			t.Errorf("the strays reached the server: %q", got)
		}
		if len(m.waits) != 1 || m.waits[0].host != "ac1" {
			t.Fatalf("waiting after the strays: %+v, want the add awaiting ac1", m.waits)
		}
		sis["ac1"].Send(MomEndpoint("cn0"), "pbs", &DynJoinAck{JobID: "j1", Host: "ac1"}, 0)
		s.Sleep(5 * time.Millisecond)
		if got := drain(srv); got != "DynAddAck j1#1" {
			t.Errorf("after the add's own ack the server got %q", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A mixed run on real moms — starts on three mother superiors, two of
// them with jobs starting together, rounds of dynamic additions and
// concurrent removals, and the releases — leaves every mom holding no
// job and no waiting op, and no more free ops than it ever had live.
func TestMomsEndAMixedRunEmpty(t *testing.T) {
	s := sim.New()
	net := netsim.New(s, netsim.LinkParams{Latency: 100 * time.Microsecond})
	params := MomParams{JoinCost: time.Millisecond, DynJoinCost: 2 * time.Millisecond, StartCost: time.Millisecond}
	hosts := []string{"cn0", "cn1", "cn2", "ac0", "ac1", "ac2", "ac3", "ac4", "ac5"}
	moms := make([]*Mom, len(hosts))
	for i, h := range hosts {
		moms[i] = NewMom(net, h, params)
	}
	srv := net.Endpoint(ServerEndpoint)
	driver := net.Endpoint("driver")
	// peak is each mom's most dynamic ops live at once, seen at every
	// delivery (an op is live from its request until its last ack).
	peak := make([]int, len(moms))
	net.Trace(func(*netsim.Message) {
		for i, m := range moms {
			live := 0
			for _, op := range m.waits {
				if _, start := op.req.(*RunJobMsg); !start {
					live++
				}
			}
			peak[i] = max(peak[i], live)
		}
	})
	script := func(*JobEnv) { s.Sleep(300 * time.Millisecond) }
	jobs := []*RunJobMsg{
		{JobID: "j1", Hosts: []string{"cn0", "cn1"}, AccHosts: [][]string{{"ac0"}, nil}},
		{JobID: "j2", Hosts: []string{"cn0"}, AccHosts: [][]string{{"ac1"}}},
		{JobID: "j3", Hosts: []string{"cn2"}, AccHosts: [][]string{{"ac2"}}},
		{JobID: "j4", Hosts: []string{"cn2"}},
	}
	err := s.Run(func() {
		defer net.Close()
		for _, m := range moms {
			m.Start()
		}
		ms := func(j *RunJobMsg) string { return MomEndpoint(j.Hosts[0]) }
		for _, j := range jobs {
			j.Spec.Script = script
			driver.Send(ms(j), "pbs", j, 0)
		}
		s.Sleep(20 * time.Millisecond)
		if got := strings.Count(drain(srv), "JobStartedMsg"); got != len(jobs) {
			t.Fatalf("%d jobs started, want %d", got, len(jobs))
		}
		for round := 0; round < 3; round++ {
			driver.Send(ms(jobs[0]), "pbs", &DynAddMsg{JobID: "j1", ReqID: 2 * round, Hosts: []string{"ac3", "ac5"}, ReplyTo: ServerEndpoint}, 0)
			driver.Send(ms(jobs[2]), "pbs", &DynAddMsg{JobID: "j3", ReqID: 2*round + 1, Hosts: []string{"ac4"}, ReplyTo: ServerEndpoint}, 0)
			s.Sleep(20 * time.Millisecond)
			if got := strings.Count(drain(srv), "DynAddAck"); got != 2 {
				t.Fatalf("round %d: %d additions acked, want 2", round, got)
			}
			driver.Send(ms(jobs[0]), "pbs", &DynRemoveMsg{JobID: "j1", Hosts: []string{"ac3"}}, 0)
			driver.Send(ms(jobs[0]), "pbs", &DynRemoveMsg{JobID: "j1", Hosts: []string{"ac5"}}, 0)
			driver.Send(ms(jobs[2]), "pbs", &DynRemoveMsg{JobID: "j3", Hosts: []string{"ac4"}}, 0)
			s.Sleep(20 * time.Millisecond)
		}
		s.Sleep(time.Second)
		if got := strings.Count(drain(srv), "JobDoneMsg"); got != len(jobs) {
			t.Fatalf("%d jobs done, want %d", got, len(jobs))
		}
		for _, j := range jobs {
			for _, h := range hosts {
				driver.Send(MomEndpoint(h), "pbs", &ReleaseJobMsg{JobID: j.JobID}, 0)
			}
		}
		s.Sleep(10 * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, m := range moms {
		if len(m.jobs) != 0 || len(m.waits) != 0 {
			t.Errorf("%s holds %d jobs and %d waiting ops", m.host, len(m.jobs), len(m.waits))
		}
		if n := freeOps(m); n > peak[i] {
			t.Errorf("%s: %d free ops, but at most %d were live at once", m.host, n, peak[i])
		}
	}
	if peak[0] != 2 {
		t.Errorf("cn0 ran at most %d dynamic ops at once, want the 2 removals", peak[0])
	}
}
