package pbs_test

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// mirrorBed drives a server as its scheduler would, by hand: the test
// actor fetches through a Mirror and sends the allocation commands
// itself, so every change of the node table is one the test made and
// has let settle before it compares views. Maui is built but never
// started.
type mirrorBed struct {
	*testbed
	t      *testing.T
	params pbs.ServerParams
	c      *pbs.Client
	ep     *netsim.Endpoint
	srv    netsim.Addr
	view   pbs.Mirror
	full   int // rounds answered with the full view
	delta  int // rounds answered with a delta
	// Jobs the mirrors held after the rounds, summed: the job-view check
	// saw non-empty lists; and the jobs a mirror held as running before
	// their start was reported.
	queuedSeen, runningSeen, unstarted int
}

func runMirrorBed(t *testing.T, nCN, nAC, shards int, fn func(b *mirrorBed)) {
	t.Helper()
	tb := newTestbed(t, nCN, nAC, nil)
	b := &mirrorBed{testbed: tb, t: t, params: pbs.ServerParams{Processing: time.Millisecond, Shards: shards},
		srv: tb.net.Resolve(pbs.ServerEndpoint)}
	if shards > 1 {
		tb.server = pbs.NewServer(tb.net, b.params)
		for _, name := range tb.cns {
			tb.server.AddNode(name, pbs.ComputeNode, 8)
		}
		for _, name := range tb.acs {
			tb.server.AddNode(name, pbs.AcceleratorNode, 1)
		}
	}
	err := tb.s.Run(func() {
		defer tb.net.Close()
		tb.server.Start()
		for _, name := range append(append([]string(nil), tb.cns...), tb.acs...) {
			tb.moms[name].Start()
		}
		b.c = pbs.NewClient(tb.net, "front", pbs.ServerEndpoint)
		b.ep = tb.net.Endpoint("test-sched")
		fn(b)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// settle lets every message in flight land and be handled.
func (b *mirrorBed) settle() { b.s.Sleep(50 * time.Millisecond) }

// round runs one SchedInfo round on the given mirror and checks it
// against pbsnodes, field for field, and its jobs against qstat and a
// fresh full answer. The caller releases the answer.
func (b *mirrorBed) round(view *pbs.Mirror, ep *netsim.Endpoint) *pbs.SchedInfoResp {
	b.t.Helper()
	b.settle()
	resp, err := view.Fetch(ep, &b.srv)
	if err != nil {
		b.t.Fatalf("Fetch: %v", err)
	}
	nodes, err := b.c.Nodes()
	if err != nil {
		b.t.Fatalf("Nodes: %v", err)
	}
	if resp.Full != (len(resp.Nodes) == len(nodes)) && len(nodes) > 0 && len(resp.Nodes) > 0 {
		b.t.Fatalf("answer marked full=%v brought %d of %d nodes", resp.Full, len(resp.Nodes), len(nodes))
	}
	if resp.Full {
		b.full++
	} else {
		b.delta++
	}
	if len(view.Nodes) != len(nodes) {
		b.t.Fatalf("mirror holds %d nodes, server %d", len(view.Nodes), len(nodes))
	}
	for i, want := range nodes {
		got := view.Nodes[i]
		same := got.Name == want.Name && got.Type == want.Type && got.Cores == want.Cores &&
			got.UsedCores == want.UsedCores && got.Down == want.Down && len(got.Jobs) == len(want.Jobs)
		for k := 0; same && k < len(want.Jobs); k++ {
			same = got.Jobs[k] == want.Jobs[k]
		}
		if !same {
			b.t.Fatalf("node %d: mirror %+v, server %+v", i, got, want)
		}
	}
	b.checkJobView(view, ep, resp)
	return resp
}

// checkJobView holds the mirror's jobs to the projection of qstat —
// every queued and every running job, in submission order, carrying
// what the full record says — and to what a fresh mirror makes of a
// full answer; and the phase counts of the answer, of the full answer
// and of the server to the same projection. The bed has settled, so
// nothing changes a job between the answers and the listing.
func (b *mirrorBed) checkJobView(view *pbs.Mirror, ep *netsim.Endpoint, resp *pbs.SchedInfoResp) {
	b.t.Helper()
	jobs, err := b.c.List()
	if err != nil {
		b.t.Fatalf("List: %v", err)
	}
	var queued, running []*pbs.SchedJobView
	for _, j := range jobs {
		seq, _ := strconv.Atoi(j.ID[:strings.IndexByte(j.ID, '.')])
		v := &pbs.SchedJobView{ID: j.ID, Seq: seq, SubmittedAt: j.SubmittedAt, StartedAt: j.StartedAt, Spec: j.Spec}
		switch {
		case j.State == pbs.JobQueued && !j.Held:
			v.Phase = pbs.PhaseQueued
			queued = append(queued, v)
		case j.State == pbs.JobRunning:
			v.Phase = pbs.PhaseRunning
			running = append(running, v)
		}
	}
	// The fresh mirror asks from the same endpoint: the server answers it
	// in full and stays at the generation view holds.
	var fresh pbs.Mirror
	full, err := fresh.Fetch(ep, &b.srv)
	if err != nil {
		b.t.Fatalf("Fetch: %v", err)
	}
	sq, sr := b.server.PhasesForTest()
	counts := []struct {
		what    string
		q, r    int
		isFull  bool
		wantAll bool
	}{{"answer", resp.Queued, resp.Running, resp.Full, false}, {"full answer", full.Queued, full.Running, full.Full, true}, {"server", sq, sr, true, true}}
	for _, c := range counts {
		if c.q != len(queued) || c.r != len(running) || c.wantAll && !c.isFull {
			b.t.Fatalf("%s counts %d queued and %d running jobs (full %v), qstat %d and %d",
				c.what, c.q, c.r, c.isFull, len(queued), len(running))
		}
	}
	full.Release()
	// Running is in no order: sort it by Seq as qstat lists it.
	bySeq := func(l []*pbs.MirrorJob) []*pbs.MirrorJob {
		l = slices.Clone(l)
		slices.SortFunc(l, func(a, b *pbs.MirrorJob) int { return a.Seq - b.Seq })
		return l
	}
	for _, l := range []struct {
		what string
		got  []*pbs.MirrorJob
		want []*pbs.SchedJobView
	}{{"queued", view.Queued, queued}, {"running", bySeq(view.Running), running},
		{"fresh queued", fresh.Queued, queued}, {"fresh running", bySeq(fresh.Running), running}} {
		if len(l.got) != len(l.want) {
			b.t.Fatalf("mirror holds %d %s jobs, qstat %d", len(l.got), l.what, len(l.want))
		}
		for i := range l.want {
			got, want := l.got[i].SchedJobView, *l.want[i]
			// A func compares only by being there or not.
			same := (got.Spec.Script == nil) == (want.Spec.Script == nil)
			got.Spec.Script, want.Spec.Script = nil, nil
			if !same || !reflect.DeepEqual(got, want) {
				b.t.Fatalf("%s job %d: mirror %+v, qstat %+v", l.what, i, got, want)
			}
		}
	}
	b.queuedSeen += len(queued)
	b.runningSeen += len(running)
}

func (b *mirrorBed) send(payload any) {
	b.t.Helper()
	if err := b.ep.Send(pbs.ServerEndpoint, "pbs", payload, 0); err != nil {
		b.t.Fatalf("send %T: %v", payload, err)
	}
}

// restart replaces the server with one restored from a checkpoint.
func (b *mirrorBed) restart() {
	b.t.Helper()
	snap := b.server.Checkpoint()
	b.server.Stop()
	b.settle()
	b.server = pbs.NewServer(b.net, b.params)
	if err := b.server.Restore(snap); err != nil {
		b.t.Fatalf("Restore: %v", err)
	}
	b.server.Start()
}

// liveJob is a running job of the property test; its script blocks
// until finish is called.
type liveJob struct {
	id      string
	clients []int // dynamic sets it holds
}

// The delta protocol's defining property: whatever happens to the node
// table between two rounds — allocations, releases, dynamic grants and
// frees, nodes failing and returning, a server restart — the mirror
// after a round is the table pbsnodes shows. Its jobs are held to qstat
// and to a fresh full answer the same way (checkJobView): through
// submissions left waiting, qhold and qrls, qalter, qdel of queued and
// running jobs, starts and ends, failures, a restart and a second
// scheduler, the jobs a scheduler holds are the projection of the full
// records, and the server's phase counts agree.
func TestNodeMirrorTracksServerThroughRandomOperations(t *testing.T) {
	for _, shards := range []int{0, 4} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards%d/seed%d", shards, seed), func(t *testing.T) {
				mirrorProperty(t, shards, seed)
			})
		}
	}
}

func mirrorProperty(t *testing.T, shards int, seed uint64) {
	runMirrorBed(t, 4, 8, shards, func(b *mirrorBed) {
		rng := sim.NewRNG(seed)
		var mu sync.Mutex
		gate := b.s.NewGate("finish")
		done := map[string]bool{}
		finish := func(id string) {
			mu.Lock()
			done[id] = true
			mu.Unlock()
			gate.Broadcast()
		}
		var live []*liveJob
		var waiting []string // submitted and never placed
		down := map[string]bool{}
		b.round(&b.view, b.ep).Release()

		for op := 0; op < 60; op++ {
			switch k := rng.Intn(12); {
			case k <= 1: // qsub, then place it like a first-fit scheduler
				spec := pbs.JobSpec{
					Name: "p", Owner: "u", Nodes: 1 + rng.Intn(2), PPN: 1 + rng.Intn(8), ACPN: rng.Intn(2),
					Walltime: time.Duration(rng.Intn(3)) * time.Minute,
					Script: func(env *pbs.JobEnv) {
						mu.Lock()
						for !done[env.JobID] {
							gate.Wait(&mu)
						}
						mu.Unlock()
					},
				}
				id, err := b.c.Submit(spec)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				b.round(&b.view, b.ep).Release()
				var hosts, acs []string
				for _, n := range b.view.Nodes {
					switch {
					case n.Down:
					case n.Type == pbs.ComputeNode && len(hosts) < spec.Nodes && n.FreeCores() >= spec.PPN:
						hosts = append(hosts, n.Name)
					case n.Type == pbs.AcceleratorNode && len(acs) < spec.Nodes*spec.ACPN && n.Free():
						acs = append(acs, n.Name)
					}
				}
				if len(hosts) < spec.Nodes || len(acs) < spec.Nodes*spec.ACPN {
					if err := b.c.Delete(id); err != nil {
						t.Fatalf("Delete: %v", err)
					}
					break
				}
				var acc [][]string
				for i := range hosts {
					acc = append(acc, acs[i*spec.ACPN:(i+1)*spec.ACPN])
				}
				b.send(&pbs.AllocCmd{JobID: id, Hosts: hosts, AccHosts: acc})
				live = append(live, &liveJob{id: id})
				// A round between the allocation and the start report: the
				// next round must bring the start.
				b.s.Sleep(1500 * time.Microsecond)
				resp, err := b.view.Fetch(b.ep, &b.srv)
				if err != nil {
					t.Fatalf("Fetch: %v", err)
				}
				if j := b.view.Job(id); j != nil && j.Phase == pbs.PhaseRunning && j.StartedAt == 0 {
					b.unstarted++
				}
				resp.Release()
			case k == 2 && len(live) > 0: // a job ends
				i := rng.Intn(len(live))
				finish(live[i].id)
				live = append(live[:i], live[i+1:]...)
			case k == 3 && len(live) > 0: // pbs_dynget, granted from what the mirror shows free
				j := live[rng.Intn(len(live))]
				want := 1 + rng.Intn(2)
				info, err := b.c.Stat(j.id)
				if err != nil || info.State != pbs.JobRunning {
					break
				}
				granted := b.s.NewGate("granted")
				var grant pbs.DynGrant
				var dynErr error
				answered := false
				b.s.Go("dynget", func() {
					cl := pbs.NewClient(b.net, "dyn", pbs.ServerEndpoint)
					g, err := cl.DynGet(j.id, info.Hosts[0], want)
					mu.Lock()
					grant, dynErr, answered = g, err, true
					mu.Unlock()
					granted.Broadcast()
				})
				resp := b.round(&b.view, b.ep)
				if len(resp.Dyn) != 1 {
					t.Fatalf("round after dynget shows %d dynamic requests, want 1", len(resp.Dyn))
				}
				var hosts []string
				for _, n := range b.view.Nodes {
					if n.Type == pbs.AcceleratorNode && n.Free() && len(hosts) < want {
						hosts = append(hosts, n.Name)
					}
				}
				if len(hosts) < want {
					hosts = nil // reject
				}
				b.send(&pbs.DynAllocCmd{ReqID: resp.Dyn[0].ReqID, Hosts: hosts})
				resp.Release()
				mu.Lock()
				for !answered {
					granted.Wait(&mu)
				}
				mu.Unlock()
				if (dynErr == nil) != (hosts != nil) {
					t.Fatalf("dynget answered %v for hosts %v", dynErr, hosts)
				}
				if dynErr == nil {
					j.clients = append(j.clients, grant.ClientID)
				}
			case k == 4 && len(live) > 0: // pbs_dynfree
				j := live[rng.Intn(len(live))]
				if len(j.clients) == 0 {
					break
				}
				if err := b.c.DynFree(j.id, j.clients[0]); err != nil {
					t.Fatalf("DynFree: %v", err)
				}
				j.clients = j.clients[1:]
			case k == 5: // a node fails
				n := b.view.Nodes[rng.Intn(len(b.view.Nodes))]
				b.server.NodeDownForTest(n.Name)
				down[n.Name] = true
				b.settle()
				kept := live[:0]
				for _, j := range live {
					if info, err := b.c.Stat(j.id); err == nil && info.State == pbs.JobRunning {
						kept = append(kept, j)
					} else {
						finish(j.id) // failed with its compute node
					}
				}
				live = kept
			case k == 6: // every failed node reports in again
				for _, n := range b.view.Nodes {
					if down[n.Name] {
						b.send(&pbs.HeartbeatMsg{Host: n.Name})
						delete(down, n.Name)
					}
				}
			case k == 8: // qsub a job nobody places
				id, err := b.c.Submit(pbs.JobSpec{
					Name: fmt.Sprintf("w%d", op), Owner: fmt.Sprintf("u%d", rng.Intn(3)), Nodes: 1 + rng.Intn(4),
					PPN: rng.Intn(9), ACPN: rng.Intn(3), Walltime: time.Duration(rng.Intn(90)) * time.Second,
					Priority: rng.Intn(5),
				})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				waiting = append(waiting, id)
			case k == 9 && len(waiting) > 0: // qhold, qrls, qalter or qdel one of them
				i := rng.Intn(len(waiting))
				id := waiting[i]
				var err error
				switch rng.Intn(4) {
				case 0:
					err = b.c.Hold(id)
				case 1:
					err = b.c.Release(id)
				case 2:
					prio := rng.Intn(100)
					err = b.c.Alter(id, &prio, time.Duration(1+rng.Intn(90))*time.Second, "altered")
				case 3:
					err = b.c.Delete(id)
					waiting = append(waiting[:i], waiting[i+1:]...)
				}
				if err != nil {
					t.Fatalf("operation on waiting job %s: %v", id, err)
				}
			case k == 10 && len(live) > 0: // qdel of a running job
				i := rng.Intn(len(live))
				if err := b.c.Delete(live[i].id); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				finish(live[i].id)
				live = append(live[:i], live[i+1:]...)
			case k == 11: // a second scheduler takes a round: the first is a stranger next
				var second pbs.Mirror
				if resp := b.round(&second, b.net.Endpoint("test-sched-2")); !resp.Full {
					t.Fatalf("a second scheduler's first round was a delta")
				} else {
					resp.Release()
				}
			case k == 7 && op%3 == 0: // head node crash and restart
				b.restart()
				if resp := b.round(&b.view, b.ep); !resp.Full || len(resp.Nodes) != len(b.view.Nodes) {
					t.Fatalf("round after a restart brought %d of %d nodes (full %v)", len(resp.Nodes), len(b.view.Nodes), resp.Full)
				} else {
					resp.Release()
				}
			}
			b.round(&b.view, b.ep).Release()
		}
		// Whatever the seed drew, the middle one of three jobs of one owner
		// and priority goes through qhold and qrls: it leaves the
		// scheduler's queue and comes back between the other two.
		var ids [3]string
		for i := range ids {
			id, err := b.c.Submit(pbs.JobSpec{Name: "h", Owner: "h", Nodes: 1, PPN: 1, Priority: 7})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ids[i] = id
		}
		position := func(id string) int {
			for i, q := range b.view.Queued {
				if q.ID == id {
					return i
				}
			}
			return -1
		}
		if err := b.c.Hold(ids[1]); err != nil {
			t.Fatalf("Hold: %v", err)
		}
		b.round(&b.view, b.ep).Release()
		if position(ids[1]) >= 0 {
			t.Errorf("held job %s is in the scheduler's queue", ids[1])
		}
		if err := b.c.Release(ids[1]); err != nil {
			t.Fatalf("Release: %v", err)
		}
		b.round(&b.view, b.ep).Release()
		if p0, p1, p2 := position(ids[0]), position(ids[1]), position(ids[2]); p0 < 0 || p1 != p0+1 || p2 != p1+1 {
			t.Errorf("released job %s is at %d, its neighbours at %d and %d", ids[1], p1, p0, p2)
		}
		for _, j := range live {
			finish(j.id)
		}
		b.round(&b.view, b.ep).Release()
		if b.delta < b.full {
			t.Errorf("%d rounds brought the full view, only %d a delta: the property was not exercised", b.full, b.delta)
		}
		if b.queuedSeen == 0 || b.runningSeen == 0 || b.unstarted == 0 {
			t.Errorf("the mirrors held %d queued, %d running and %d unstarted jobs in all: the job view was not exercised",
				b.queuedSeen, b.runningSeen, b.unstarted)
		}
		for _, e := range b.server.Errors() {
			t.Errorf("server error: %s", e)
		}
	})
}

// The cases in which the server cannot serve a delta each bring every
// node, and leave a correct mirror behind.
func TestNodeMirrorResyncs(t *testing.T) {
	runMirrorBed(t, 2, 4, 0, func(b *mirrorBed) {
		total := 6
		wantNodes := func(what string, resp *pbs.SchedInfoResp, want int) {
			t.Helper()
			if len(resp.Nodes) != want {
				t.Errorf("%s: answer brought %d nodes, want %d", what, len(resp.Nodes), want)
			}
			resp.Release()
		}
		wantNodes("first round", b.round(&b.view, b.ep), total)
		wantNodes("idle round", b.round(&b.view, b.ep), 0)
		b.server.NodeDownForTest("ac1")
		wantNodes("one node changed", b.round(&b.view, b.ep), 1)

		// A reply that never reaches the scheduler: the server has moved
		// on to the next generation, the mirror has not.
		b.server.NodeDownForTest("ac2")
		b.send(&pbs.SchedInfoReq{ReqID: -1, ReplyTo: b.ep.Name(), Gen: b.view.GenForTest()})
		m, err := b.ep.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		lost := m.Payload.(*pbs.SchedInfoResp)
		wantNodes("the lost reply itself", lost, 1)
		wantNodes("round after a lost reply", b.round(&b.view, b.ep), total)
		wantNodes("idle round after the resync", b.round(&b.view, b.ep), 0)

		// A second scheduler attaches; the first is then a stranger too.
		var second pbs.Mirror
		ep2 := b.net.Endpoint("test-sched-2")
		wantNodes("second scheduler", b.round(&second, ep2), total)
		wantNodes("first scheduler after the second", b.round(&b.view, b.ep), total)
		wantNodes("first scheduler again", b.round(&b.view, b.ep), 0)

		// A generation handed out by a server that is gone.
		b.restart()
		wantNodes("round after a restart", b.round(&b.view, b.ep), total)
		b.send(&pbs.HeartbeatMsg{Host: "ac1"})
		wantNodes("node back up", b.round(&b.view, b.ep), 1)
		if b.view.Nodes[3].Down || !b.view.Nodes[4].Down {
			t.Errorf("mirror after the restart: ac1 down=%v ac2 down=%v, want false true",
				b.view.Nodes[3].Down, b.view.Nodes[4].Down)
		}
	})
}
