package dac

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Collective dynamic allocation (paper Section III-D, last part):
// when AC_Get is called collectively over all compute nodes of a
// multi-node job, one compute node gathers the per-node counts and
// sends a single pbs_dynget for the total. Either every compute node
// gets its accelerators or none, they share one client-id, and the
// set can only be released collectively.

// collGroup is the per-job rendezvous the compute-node processes use
// to coordinate a collective call. It plays the role of the job's
// shared MPI communicator among compute nodes.
type collGroup struct {
	gate *sim.Gate
	size int

	// The state below is touched only by the job's actors, one at a
	// time, so it takes no lock.
	counts    map[int]int
	parts     map[int][]string
	clientID  int
	errText   string
	published bool
	taken     int

	bCount int
	bPhase int
}

// collGroupFor returns the job's rendezvous group, creating it with
// the job's compute-node count on first use.
func (ctx *Context) collGroupFor(jobID string, size int) *collGroup {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	g, ok := ctx.colls[jobID]
	if !ok {
		g = &collGroup{
			gate:   ctx.Sim.NewGate("dac-coll/" + jobID),
			size:   size,
			counts: make(map[int]int),
			parts:  make(map[int][]string),
		}
		ctx.colls[jobID] = g
	}
	return g
}

// barrier synchronizes all participants (sense-reversing).
func (g *collGroup) barrier() {
	phase := g.bPhase
	g.bCount++
	if g.bCount == g.size {
		g.bCount = 0
		g.bPhase++
		g.gate.Broadcast()
		return
	}
	for g.bPhase == phase {
		g.gate.Wait(nil)
	}
}

// CollectiveGet is AC_Get invoked collectively over every compute
// node of the job. Each node passes the number of accelerators it
// wants (zero is allowed); node rank 0 issues the single aggregated
// pbs_dynget. All nodes receive the same client-id; on rejection all
// receive the error and no node gets anything.
func (ac *AC) CollectiveGet(count int) (int, []*Accel, error) {
	ac.mu.Lock()
	if ac.finalized {
		ac.mu.Unlock()
		return 0, nil, ErrFinalized
	}
	ac.mu.Unlock()
	if count < 0 {
		return 0, nil, fmt.Errorf("dac: CollectiveGet count %d", count)
	}
	g := ac.ctx.collGroupFor(ac.env.JobID, len(ac.env.Hosts))
	rank := ac.env.Rank

	g.counts[rank] = count
	if len(g.counts) == g.size {
		g.gate.Broadcast()
	}

	if rank == 0 {
		// Gather all counts, then issue one request for the total.
		for len(g.counts) < g.size {
			g.gate.Wait(nil)
		}
		total := 0
		order := make([]int, 0, g.size)
		for r := 0; r < g.size; r++ {
			total += g.counts[r]
			order = append(order, r)
		}

		start := ac.ctx.Sim.Now()
		grant, err := ac.ifl.DynGet(ac.env.JobID, ac.env.Host, total)
		batch := ac.ctx.Sim.Now() - start
		ac.mu.Lock()
		ac.stats.Gets = append(ac.stats.Gets, GetStat{Count: total, Batch: batch, Rejected: err != nil})
		ac.mu.Unlock()

		if err != nil {
			g.errText = err.Error()
		} else {
			g.clientID = grant.ClientID
			idx := 0
			for _, r := range order {
				n := g.counts[r]
				g.parts[r] = grant.Hosts[idx : idx+n : idx+n] // the grant's list is never written: a share is a slice of it
				idx += n
			}
		}
		g.published = true
		g.gate.Broadcast()
	}

	// Every node picks up its share.
	for !g.published {
		g.gate.Wait(nil)
	}
	part := g.parts[rank]
	clientID := g.clientID
	errText := g.errText
	g.taken++
	if g.taken == g.size {
		// Last reader resets the group for the next round.
		g.taken = 0
		g.published = false
		g.counts = make(map[int]int)
		g.parts = make(map[int][]string)
		g.clientID = 0
		g.errText = ""
		g.gate.Broadcast()
	}

	if errText != "" {
		return 0, nil, errors.New("dac: collective AC_Get: " + errText)
	}
	var handles []*Accel
	if len(part) > 0 {
		var err error
		handles, err = ac.spawnAndMerge(part)
		if err != nil {
			return 0, nil, err
		}
	}
	ac.mu.Lock()
	ids := make([]int, len(handles))
	for i, h := range handles {
		ids[i] = h.id
	}
	ac.sets[clientID] = ids
	ac.mu.Unlock()
	return clientID, handles, nil
}

// CollectiveFree releases a collectively acquired set: every compute
// node disconnects and shrinks locally; once all have done so, node
// rank 0 sends the single pbs_dynfree, honoring the constraint that a
// collectively obtained client-id is released collectively.
func (ac *AC) CollectiveFree(clientID int) error {
	if err := ac.releaseLocal(clientID); err != nil {
		return err
	}
	g := ac.ctx.collGroupFor(ac.env.JobID, len(ac.env.Hosts))
	g.barrier()
	if ac.env.Rank == 0 {
		if err := ac.ifl.DynFree(ac.env.JobID, clientID); err != nil {
			return fmt.Errorf("dac: pbs_dynfree: %w", err)
		}
	}
	return nil
}
