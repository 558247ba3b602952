package pbs

import (
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
			JoinJobMsg{JobID: "j1", MS: "cnX", Hosts: []string{"cnX", "cn0"}, ReplyTo: driver.Name()}, 0)
		msg, err := driver.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		ack, ok := msg.Payload.(JoinAck)
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
			DynJoinJobMsg{JobID: "j2", MS: "cnX", ReplyTo: driver.Name()}, 0)
		msg, err := driver.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if ack, ok := msg.Payload.(DynJoinAck); !ok || ack.Host != "cn0" {
			t.Fatalf("ack = %#v", msg.Payload)
		}
		_, joined := m.jobs["j2"]
		if !joined {
			t.Fatal("mom did not record the job after DYNJOIN")
		}

		driver.Send(MomEndpoint("cn0"), "pbs", DisJoinJobMsg{JobID: "j2", ReplyTo: driver.Name()}, 0)
		msg, err = driver.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if ack, ok := msg.Payload.(DisJoinAck); !ok || ack.JobID != "j2" {
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
			JoinJobMsg{JobID: "j3", MS: "cnX", Hosts: []string{"cnX", "cn0"}, ReplyTo: driver.Name()}, 0)
		driver.Recv()
		driver.Send(MomEndpoint("cn0"), "pbs",
			UpdateJobMsg{JobID: "j3", Hosts: []string{"cnX", "cn0", "ac9"}}, 0)
		s.Sleep(10 * time.Millisecond)
		hosts := append([]string(nil), m.jobs["j3"].hosts...)
		if len(hosts) != 3 || hosts[2] != "ac9" {
			t.Fatalf("hosts = %v", hosts)
		}

		// NodeLostMsg removes a host again.
		driver.Send(MomEndpoint("cn0"), "pbs", NodeLostMsg{JobID: "j3", Host: "ac9"}, 0)
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
			JoinJobMsg{JobID: "j4", MS: "cnX", Hosts: nil, ReplyTo: driver.Name()}, 0)
		driver.Recv()
		driver.Send(MomEndpoint("cn0"), "pbs", ReleaseJobMsg{JobID: "j4"}, 0)
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
		driver.Send(MomEndpoint("cn0"), "pbs", StartTaskMsg{
			JobID:  "j5",
			Env:    env,
			Script: func(e *JobEnv) { ran = true },
		}, 0)
		msg, err := ms.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		done, ok := msg.Payload.(TaskDoneMsg)
		if !ok || done.JobID != "j5" || done.Host != "cn0" {
			t.Fatalf("done = %#v", msg.Payload)
		}
		if !ran {
			t.Fatal("script never ran")
		}
		// A nil script completes immediately too.
		driver.Send(MomEndpoint("cn0"), "pbs", StartTaskMsg{JobID: "j6", Env: &JobEnv{Host: "cn0", MSHost: "cnX"}}, 0)
		if msg, err = ms.Recv(); err != nil || msg.Payload.(TaskDoneMsg).JobID != "j6" {
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
