// Package fifosched implements TORQUE's built-in basic FIFO scheduler
// (pbs_sched), which the paper mentions as the alternative to Maui
// (Section III-A) and which demonstrates its portability claim: "Any
// scheduler capable of dynamic scheduling and allocation can be
// integrated with our version of TORQUE" (Section V).
//
// Policy: strict first-come first-served over submission order — the
// queue head blocks everything behind it; no backfill, no fairshare,
// no priorities. Dynamic requests are serviced in arrival order
// interleaved with the static queue.
package fifosched

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// Params is the FIFO scheduler's cost model.
type Params struct {
	Endpoint      string
	CycleInterval time.Duration
	CycleOverhead time.Duration
	PerJobCost    time.Duration
}

// DefaultParams mirrors the Maui testbed costs so comparisons isolate
// policy, not speed.
func DefaultParams() Params {
	return Params{
		Endpoint:      "pbs_sched",
		CycleInterval: time.Second,
		CycleOverhead: 150 * time.Millisecond,
		PerJobCost:    25 * time.Millisecond,
	}
}

// Scheduler is the pbs_sched daemon.
type Scheduler struct {
	net      *netsim.Network
	sim      *sim.Simulation
	ep       *netsim.Endpoint
	serverEP string
	params   Params

	// view mirrors the server's nodes and jobs; see pbs.Mirror.
	view pbs.Mirror

	mu     sync.Mutex
	cycles int64
	placed int64
}

// New creates a FIFO scheduler speaking to the given server.
func New(net *netsim.Network, serverEP string, params Params) *Scheduler {
	if params.Endpoint == "" {
		params.Endpoint = "pbs_sched"
	}
	return &Scheduler{
		net:      net,
		sim:      net.Sim(),
		ep:       net.Endpoint(params.Endpoint),
		serverEP: serverEP,
		params:   params,
	}
}

// Endpoint returns the scheduler's fabric name.
func (sc *Scheduler) Endpoint() string { return sc.ep.Name() }

// Cycles reports completed scheduling iterations.
func (sc *Scheduler) Cycles() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cycles
}

// JobsPlaced reports jobs started by this scheduler.
func (sc *Scheduler) JobsPlaced() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.placed
}

// Start spawns the scheduler actor.
func (sc *Scheduler) Start() {
	sc.sim.Go("pbs_sched", func() {
		for {
			m, err := sc.ep.RecvTimeout(sc.params.CycleInterval)
			m.Release()
			if err != nil && !errors.Is(err, netsim.ErrTimeout) {
				return
			}
			for sc.ep.Pending() > 0 {
				m, err := sc.ep.Recv()
				m.Release()
				if err != nil {
					return
				}
			}
			if !sc.runCycle() {
				return
			}
		}
	})
}

// free tracks the cycle-local pool.
type free struct {
	acs    []string
	cores  map[string]int
	jobs   map[string][]string
	cnames []string
}

func (sc *Scheduler) runCycle() bool {
	info, err := sc.view.Fetch(sc.ep, sc.serverEP)
	if err != nil {
		return false
	}
	// The pooled answer (and the item pointers into it) stays valid
	// until released at end of cycle, the mirror pool.jobs aliases
	// until the next fetch.
	defer info.Release()
	sc.sim.Sleep(sc.params.CycleOverhead)
	sc.mu.Lock()
	sc.cycles++
	sc.mu.Unlock()

	pool := free{cores: make(map[string]int), jobs: make(map[string][]string)}
	for _, n := range sc.view.Nodes {
		if n.Down {
			continue
		}
		switch n.Type {
		case pbs.AcceleratorNode:
			if n.Free() {
				pool.acs = append(pool.acs, n.Name)
			}
		case pbs.ComputeNode:
			pool.cores[n.Name] = n.FreeCores()
			pool.jobs[n.Name] = n.Jobs
			pool.cnames = append(pool.cnames, n.Name)
		}
	}

	// One stream, strictly by arrival: the queue and the requests each
	// come in arrival order, a job goes before a request of its instant.
	q, dyn := sc.view.Queued, info.Dyn
	blocked := false
	for len(q)+len(dyn) > 0 {
		sc.sim.Sleep(sc.params.PerJobCost)
		if len(q) == 0 || len(dyn) > 0 && dyn[0].ArrivedAt < q[0].SubmittedAt {
			// Dynamic requests are answered even when the static head
			// blocks: rejection is immediate, never queued-for-later
			// (Section III-E).
			hosts := sc.allocDyn(dyn[0], &pool)
			sc.send(pbs.DynAllocCmd{ReqID: dyn[0].ReqID, Hosts: hosts})
			dyn = dyn[1:]
			continue
		}
		j := q[0]
		q = q[1:]
		if blocked {
			continue // strict FIFO: nothing overtakes the head
		}
		hosts, acc, ok := sc.place(j.Spec, j.ID, &pool)
		if !ok {
			blocked = true
			continue
		}
		sc.mu.Lock()
		sc.placed++
		sc.mu.Unlock()
		sc.send(pbs.AllocCmd{JobID: j.ID, Hosts: hosts, AccHosts: acc})
	}
	return true
}

func (sc *Scheduler) allocDyn(r pbs.SchedDynView, pool *free) []string {
	if r.Kind == pbs.KindCompute {
		var chosen []string
		for _, cn := range pool.cnames {
			if pool.cores[cn] < r.PPN || r.PPN <= 0 || slices.Contains(pool.jobs[cn], r.JobID) {
				continue
			}
			chosen = append(chosen, cn)
			if len(chosen) == r.Count {
				break
			}
		}
		if len(chosen) < r.Count {
			return nil
		}
		for _, cn := range chosen {
			pool.cores[cn] -= r.PPN
			pool.jobs[cn] = append(pool.jobs[cn], r.JobID)
		}
		return chosen
	}
	if r.Count > len(pool.acs) {
		return nil
	}
	// The cycle's own list is never written again: a grant is a slice of it.
	out := pool.acs[:r.Count:r.Count]
	pool.acs = pool.acs[r.Count:]
	return out
}

func (sc *Scheduler) place(spec pbs.JobSpec, jobID string, pool *free) ([]string, [][]string, bool) {
	var chosen []string
	for _, cn := range pool.cnames {
		if pool.cores[cn] >= spec.PPN && (spec.PPN > 0 || pool.cores[cn] > 0) {
			chosen = append(chosen, cn)
			if len(chosen) == spec.Nodes {
				break
			}
		}
	}
	if len(chosen) < spec.Nodes {
		return nil, nil, false
	}
	need := spec.Nodes * spec.ACPN
	if need > len(pool.acs) {
		return nil, nil, false
	}
	var acc [][]string // acc[i] serves chosen[i]; nil when none were asked for
	for i, cn := range chosen {
		if a := spec.ACPN; a > 0 {
			acc = append(acc, pool.acs[i*a:(i+1)*a:(i+1)*a])
		}
		pool.cores[cn] -= spec.PPN
		pool.jobs[cn] = append(pool.jobs[cn], jobID)
	}
	pool.acs = pool.acs[need:]
	return chosen, acc, true
}

func (sc *Scheduler) send(payload any) {
	_ = sc.ep.Send(sc.serverEP, "pbs", payload, 0)
}
