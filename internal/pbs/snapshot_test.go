package pbs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/maui"
	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestServerRestartPreservesJobsAndNodes(t *testing.T) {
	tb := newTestbed(t, 2, 2, nil)
	tb.run(t, func(c *pbs.Client) {
		// A running job and a queued job at checkpoint time.
		running, _ := c.Submit(pbs.JobSpec{
			Name: "running", Owner: "u", Nodes: 1, PPN: 8, ACPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(300 * time.Millisecond) },
		})
		tb.s.Sleep(60 * time.Millisecond) // let it start
		held, _ := c.Submit(pbs.JobSpec{
			Name: "later", Owner: "u", Nodes: 2, PPN: 8, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) { tb.s.Sleep(30 * time.Millisecond) },
		})

		snap := tb.server.Checkpoint()
		tb.server.Stop()
		tb.s.Sleep(20 * time.Millisecond) // the old server is gone

		// The replacement server takes over the well-known endpoint.
		replacement := pbs.NewServer(tb.net, pbs.ServerParams{Processing: time.Millisecond})
		replacement.SetScheduler(tb.sched.Endpoint())
		if err := replacement.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		replacement.Start()

		// The running job's completion lands at the new server.
		info, err := c.Wait(running)
		if err != nil {
			t.Fatalf("Wait(running): %v", err)
		}
		if info.State != pbs.JobCompleted {
			t.Errorf("running job state = %v", info.State)
		}
		// The queued job gets scheduled by the new server.
		info, err = c.Wait(held)
		if err != nil {
			t.Fatalf("Wait(queued): %v", err)
		}
		if info.State != pbs.JobCompleted {
			t.Errorf("queued job state = %v", info.State)
		}
		// Node accounting survived the restart.
		nodes, _ := c.Nodes()
		for _, n := range nodes {
			if len(n.Jobs) != 0 {
				t.Errorf("node %s leaked %v after restart", n.Name, n.Jobs)
			}
		}
		// New submissions get fresh ids continuing the sequence.
		id3, err := c.Submit(pbs.JobSpec{Name: "after", Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {}})
		if err != nil {
			t.Fatalf("Submit after restart: %v", err)
		}
		if id3 == running || id3 == held {
			t.Errorf("job id reused after restart: %s", id3)
		}
		c.Wait(id3)
		for _, e := range replacement.Errors() {
			t.Errorf("replacement server error: %s", e)
		}
	})
}

func TestServerRestartRejectsInFlightDynRequest(t *testing.T) {
	// A very slow dyn-allocation step keeps the request in flight at
	// the server when the crash hits.
	tb := newTestbed(t, 1, 3, func(p *maui.Params) {
		p.CycleInterval = 10 * time.Second
		p.DynPerReqCost = 5 * time.Second
	})
	tb.run(t, func(c *pbs.Client) {
		var dynErr error
		var mu sync.Mutex
		done := tb.s.NewGate("done")
		finished := false
		id, _ := c.Submit(pbs.JobSpec{
			Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Minute,
			Script: func(env *pbs.JobEnv) {
				cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
				_, err := cl.DynGet(env.JobID, env.Host, 1)
				mu.Lock()
				dynErr = err
				finished = true
				mu.Unlock()
				done.Broadcast()
			},
		})
		// Wait until the request is queued at the server, then crash
		// it before the (slow) scheduler answers.
		tb.s.Sleep(100 * time.Millisecond)
		snap := tb.server.Checkpoint()
		if len(snap.Pending) != 1 {
			t.Fatalf("pending dyn requests in snapshot = %d", len(snap.Pending))
		}
		tb.server.Stop()
		tb.s.Sleep(10 * time.Millisecond)
		replacement := pbs.NewServer(tb.net, pbs.ServerParams{Processing: time.Millisecond})
		replacement.SetScheduler(tb.sched.Endpoint())
		if err := replacement.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		replacement.Start()

		mu.Lock()
		for !finished {
			done.Wait(&mu)
		}
		err := dynErr
		mu.Unlock()
		if err == nil || !strings.Contains(err.Error(), "server restarted") {
			t.Fatalf("in-flight DynGet after restart: %v", err)
		}
		c.Wait(id)
	})
}

// A restart refuses the requests it finds mid-flight the way every
// other refusal is made: with its audit record and its telemetry
// samples, and — for a request that already held accelerators while
// the mother superior joined them — with those handed back under the
// invariant engine's eyes.
func TestRestoreRejectsForwardingAndQueuedThroughTheTable(t *testing.T) {
	rec, reg := audit.New(1<<16), telemetry.New()
	s := sim.New()
	s.SetAudit(rec)
	s.SetTelemetry(reg)
	tb := newTestbedOn(t, s, 2, 3, nil)
	runTolerant(t, tb, func(c *pbs.Client) { // the old server's DYNJOIN is acknowledged to a server that never heard of it
		var mu sync.Mutex
		answers := make(map[string]pbs.DynGrant)
		errs := make(map[string]error)
		answered := tb.s.NewGate("answered")
		script := func(env *pbs.JobEnv) {
			cl := pbs.NewClient(env.Cluster.(*netsim.Network), env.Host, env.ServerEP)
			g, err := cl.DynGet(env.JobID, env.Host, 2)
			mu.Lock()
			answers[env.JobID], errs[env.JobID] = g, err
			mu.Unlock()
			answered.Broadcast()
			tb.s.Sleep(100 * time.Millisecond)
		}
		a, _ := c.Submit(pbs.JobSpec{Name: "a", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Minute, Script: script})
		b, _ := c.Submit(pbs.JobSpec{Name: "b", Owner: "u", Nodes: 1, PPN: 8, Walltime: time.Minute, Script: script})

		// The paper's server works on one request at a time: while the
		// first is being joined the second waits dynqueued. Catch that
		// instant.
		var snap pbs.Snapshot
		for i := 0; ; i++ {
			snap = tb.server.Checkpoint()
			if len(snap.Pending) == 2 && snap.Pending[0].State == pbs.DynForwarding && snap.Pending[1].State == pbs.DynQueued {
				break
			}
			if i == 5000 {
				t.Errorf("never saw one request forwarding and one queued; last saw %d pending", len(snap.Pending))
				return
			}
			tb.s.Sleep(100 * time.Microsecond)
		}
		held := snap.Pending[0].Hosts
		if len(held) != 2 {
			t.Errorf("forwarding request holds %v, want two accelerators", held)
		}
		tb.server.Stop()
		tb.s.Sleep(10 * time.Millisecond)
		replacement := pbs.NewServer(tb.net, pbs.ServerParams{Processing: time.Millisecond})
		replacement.SetScheduler(tb.sched.Endpoint())
		if err := replacement.Restore(snap); err != nil {
			t.Errorf("Restore: %v", err)
			return
		}
		replacement.Start()

		mu.Lock()
		for len(answers) < 2 {
			answered.Wait(&mu)
		}
		for _, id := range []string{a, b} {
			if answers[id].ClientID != -1 || errs[id] == nil || !strings.Contains(errs[id].Error(), "server restarted") {
				t.Errorf("job %s: DynGet returned %+v, %v; want client-id -1 and the restart named", id, answers[id], errs[id])
			}
		}
		mu.Unlock()

		rejected := 0
		for _, e := range rec.Events() {
			if e.Kind == audit.KindJob && e.Detail == "dyn-rejected" {
				rejected++
			}
		}
		if rejected != 2 {
			t.Errorf("recording holds %d dyn-rejected events, want 2", rejected)
		}
		if n := reg.Counter("pbs.dyn_rejected").Value(); n != 2 {
			t.Errorf("pbs.dyn_rejected = %d, want 2", n)
		}
		if n := reg.Histogram("pbs.dyn_latency").Count(); n != 2 {
			t.Errorf("pbs.dyn_latency holds %d samples, want 2", n)
		}
		// The full sweep recounts every accelerator from the node table
		// and every claim from the job records: the two handed back are
		// free on both sides, or conservation.acc breaks.
		rec.CaptureDigests()
		if names := breachNames(rec); len(names) != 0 {
			t.Errorf("breaches after the restart: %v", names)
		}
		nodes, _ := c.Nodes()
		for _, n := range nodes {
			if n.Type == pbs.AcceleratorNode && len(n.Jobs) != 0 {
				t.Errorf("accelerator %s still held by %v", n.Name, n.Jobs)
			}
		}
		for _, id := range []string{a, b} {
			if info, err := c.Wait(id); err != nil || info.State != pbs.JobCompleted || len(info.DynSets) != 0 {
				t.Errorf("job %s after the restart: %+v, %v", id, info, err)
			}
		}
	})
}

// Stop reaches a server whose stations are busy. What they already hold
// is served by the old server; what arrives after the stop waits at the
// endpoint and is drained, in order, by the restored server's Start. In
// the faithful server the three requests queue behind one another; the
// sharded one serves the two submissions side by side and the qstat,
// routed to the first one's station, after it.
func TestStopWhileAStationIsBusy(t *testing.T) {
	const lat, proc = 100 * time.Microsecond, 10 * time.Millisecond
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name   string
		shards int
		at     []time.Duration // when each reply reaches the client
	}{
		{"faithful", 0, []time.Duration{ms(10.2), ms(20.2), ms(30.2), ms(60.1), ms(70.1)}},
		{"sharded", 4, []time.Duration{ms(10.2), ms(10.2), ms(20.2), ms(60.1), ms(60.1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			net := netsim.New(s, netsim.LinkParams{Latency: lat})
			params := pbs.ServerParams{Processing: proc, Shards: tc.shards}
			old := pbs.NewServer(net, params)
			front := net.Endpoint("front")
			submit := func(req int) {
				_ = front.Send(pbs.ServerEndpoint, "pbs", &pbs.SubmitReq{ReqID: req, ReplyTo: "front",
					Spec: pbs.JobSpec{Name: "j", Owner: "u", Nodes: 1, PPN: 1}}, 0)
			}
			stat := func(req int, job string) {
				_ = front.Send(pbs.ServerEndpoint, "pbs", &pbs.StatReq{ReqID: req, ReplyTo: "front", JobID: job}, 0)
			}
			var replied *pbs.Server
			err := s.Run(func() {
				defer net.Close()
				old.Start()
				submit(1)
				submit(2)
				s.Sleep(time.Millisecond)
				stat(3, "1.pbs/server") // waits for the station serving submission 1
				s.Sleep(time.Millisecond)
				old.Stop()
				s.Sleep(time.Millisecond)
				submit(4) // arrives after the stop
				stat(5, "3.pbs/server")
				s.Sleep(50*time.Millisecond - s.Now())
				replied = pbs.NewServer(net, params)
				if err := replied.Restore(old.Checkpoint()); err != nil {
					t.Errorf("Restore: %v", err)
					return
				}
				replied.Start()
				want := []string{"1 1.pbs/server", "2 2.pbs/server", "3 1.pbs/server", "4 3.pbs/server", "5 3.pbs/server"}
				for i, w := range want {
					m, err := front.Recv()
					if err != nil {
						t.Errorf("Recv: %v", err)
						return
					}
					var got string
					switch r := m.Payload.(type) {
					case *pbs.SubmitResp:
						got = fmt.Sprintf("%d %s%s", r.ReqID, r.JobID, r.Err)
					case *pbs.StatResp:
						got = fmt.Sprintf("%d %s%s", r.ReqID, r.Info.ID, r.Err)
					}
					if got != w || m.Delivered != tc.at[i] {
						t.Errorf("reply %d: %q at %v, want %q at %v", i, got, m.Delivered, w, tc.at[i])
					}
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if n := len(old.Checkpoint().Jobs); n != 2 {
				t.Errorf("the stopped server holds %d jobs, want the 2 submitted before the stop", n)
			}
			for _, e := range append(old.Errors(), replied.Errors()...) {
				t.Errorf("server error: %s", e)
			}
		})
	}
}

func TestRestoreOnDirtyServerFails(t *testing.T) {
	tb := newTestbed(t, 1, 0, nil)
	tb.run(t, func(c *pbs.Client) {
		snap := tb.server.Checkpoint()
		if err := tb.server.Restore(snap); err == nil {
			t.Fatal("Restore on a populated server should fail")
		}
	})
}

// The job log is the server's index only while it ascends in sequence
// number, so Restore refuses a snapshot whose order does not, that
// holds a record its order lacks, or whose job names a node it does not
// hold, and leaves the server empty; a well-formed one round-trips,
// purged ids and all.
func TestRestoreRefusesJobsOutOfOrder(t *testing.T) {
	job := func(seq int) pbs.JobInfo {
		return pbs.JobInfo{ID: fmt.Sprintf("%d.%s", seq, pbs.ServerEndpoint), State: pbs.JobCompleted}
	}
	id1, id2 := job(1).ID, job(2).ID
	srv := pbs.NewServer(netsim.New(sim.New(), netsim.LinkParams{}), pbs.ServerParams{})
	for _, bad := range []pbs.Snapshot{
		{Order: []string{id2, id1}, Jobs: []pbs.JobInfo{job(2), job(1)}},
		{Order: []string{id1, id1}, Jobs: []pbs.JobInfo{job(1)}},
		{Order: []string{"x." + pbs.ServerEndpoint}},
		{Order: []string{id1}, Jobs: []pbs.JobInfo{job(2)}},
		{Order: []string{id1, id2}, Jobs: []pbs.JobInfo{job(2), job(1)}},
		{Order: []string{id1}, Jobs: []pbs.JobInfo{{ID: id1, State: pbs.JobRunning, Hosts: []string{"cn0"}}}},
	} {
		if err := srv.Restore(bad); err == nil {
			t.Errorf("Restore(order %v, %d jobs) succeeded", bad.Order, len(bad.Jobs))
		}
	}
	good := pbs.Snapshot{NextJob: 2, Order: []string{id1, id2}, Jobs: []pbs.JobInfo{job(2)}}
	if err := srv.Restore(good); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := srv.Checkpoint(); fmt.Sprint(got.Order, got.Jobs) != fmt.Sprint(good.Order, good.Jobs) {
		t.Errorf("checkpoint after Restore: order %v, jobs %v", got.Order, got.Jobs)
	}
}
