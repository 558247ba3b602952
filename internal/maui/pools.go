package maui

import (
	"math/bits"
	"slices"

	"repro/internal/pbs"
)

// pools tracks the scheduler's view of free resources over the whole
// node table, indexed by the table index i of each node.
//
// Placement semantics are first-fit in node-database order, as the
// original Maui walk did — but the walk itself is indexed: for every
// possible per-node core demand c, levels[c-1] is a bitset of the
// compute nodes with at least c free cores. A fit for k nodes at ppn
// cores therefore skips every too-full node in O(1) per 64 nodes
// instead of examining each one, which is what keeps scheduling
// cycles sub-quadratic on multi-hundred-node clusters (the -fig
// scale experiment measures exactly this). Free accelerators are a
// bitset in the same order.
//
// The pools persist across cycles. A cycle's placements are tentative
// — the server may refuse an AllocCmd, or never see a DynAllocCmd — so
// commit and takeACs note the nodes they charge, and the next cycle
// begins with rollback, which re-derives exactly those from the
// mirror, followed by sync for every node of the round's delta. The
// pools then equal pools built fresh from the whole table, at a cost
// that follows what changed instead of the cluster size.
type pools struct {
	view *pbs.Mirror

	cns    []cnState  // by table index; zero for accelerators and down nodes
	levels [][]uint64 // levels[c] = bitset of table indices with free >= c+1
	acs    []uint64   // bitset of free accelerators
	nACs   int        // set bits in acs
	acLow  int        // no word of acs below this index has a set bit

	touched []int // table indices charged on this cycle
	chosen  []int // scratch for fit/takeCNs candidate collection
}

type cnState struct {
	free int
	// jobs aliases the mirror's NodeInfo.Jobs; commit may append past
	// its length, which leaves the mirror's own slice as it was.
	jobs []string
}

// node returns the mirror entry behind a table index.
func (p *pools) node(l int) *pbs.NodeInfo { return &p.view.Nodes[l] }

// sync re-derives one node's contribution from the mirror.
func (p *pools) sync(l int) {
	n := p.node(l)
	for len(p.cns) <= l {
		p.cns = append(p.cns, cnState{})
		if words := (len(p.cns) + 63) / 64; words > len(p.acs) {
			p.acs = append(p.acs, 0)
			for c := range p.levels {
				p.levels[c] = append(p.levels[c], 0)
			}
		}
	}
	free, ac := 0, false
	if !n.Down { // failed nodes never receive work
		switch n.Type {
		case pbs.ComputeNode:
			// A view outside [0, Cores] is a fault the audit reports
			// (view.capacity); the pools only have levels 1..Cores, and
			// an over-committed node offers nothing.
			free = min(max(n.FreeCores(), 0), n.Cores)
			for len(p.levels) < n.Cores {
				p.levels = append(p.levels, make([]uint64, len(p.acs)))
			}
		case pbs.AcceleratorNode:
			ac = n.Free()
		}
	}
	p.setFree(l, free)
	p.cns[l].jobs = n.Jobs
	word, bit := l>>6, uint64(1)<<(uint(l)&63)
	if was := p.acs[word]&bit != 0; ac && !was {
		p.acs[word] |= bit
		p.nACs++
		if word < p.acLow {
			p.acLow = word
		}
	} else if was && !ac {
		p.acs[word] &^= bit
		p.nACs--
	}
}

// rollback re-derives every node the previous cycle charged, dropping
// whatever the server did not make real.
func (p *pools) rollback() {
	for _, l := range p.touched {
		p.sync(l)
	}
	p.touched = p.touched[:0]
}

// setFree moves a compute node to nf free cores in the level index.
func (p *pools) setFree(l, nf int) {
	old := p.cns[l].free
	word, bit := l>>6, uint64(1)<<(uint(l)&63)
	for c := nf; c < old; c++ {
		p.levels[c][word] &^= bit
	}
	for c := old; c < nf; c++ {
		p.levels[c][word] |= bit
	}
	p.cns[l].free = nf
}

// eachWithFree calls fn with the table index of every compute node
// that has at least max(ppn, 1) free cores, in node-database order,
// until fn returns false. fn must not commit allocations
// mid-iteration; callers collect candidates first and commit after.
func (p *pools) eachWithFree(ppn int, fn func(l int) bool) {
	lvl := ppn - 1
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(p.levels) {
		return
	}
	for wi, w := range p.levels[lvl] {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			if !fn(wi<<6 + b) {
				return
			}
		}
	}
}

// commit charges ppn cores on node l to jobID.
func (p *pools) commit(l, ppn int, jobID string) {
	p.setFree(l, p.cns[l].free-ppn)
	p.cns[l].jobs = append(p.cns[l].jobs, jobID)
	p.touched = append(p.touched, l)
}

// full reports whether no compute node has a free core: every fit fails.
func (p *pools) full() bool {
	return len(p.levels) == 0 || !slices.ContainsFunc(p.levels[0], func(w uint64) bool { return w != 0 })
}

// takeACs removes and returns the first n free accelerators, or nil
// when fewer are free.
func (p *pools) takeACs(n int) []string {
	if n > p.nACs {
		return nil
	}
	out := make([]string, 0, n)
	for len(out) < n {
		w := p.acs[p.acLow]
		if w == 0 {
			p.acLow++
			continue
		}
		b := bits.TrailingZeros64(w)
		p.acs[p.acLow] = w &^ (1 << uint(b))
		l := p.acLow<<6 + b
		out = append(out, p.node(l).Name)
		p.touched = append(p.touched, l)
	}
	p.nACs -= n
	return out
}

// takeCNs picks count compute nodes with ppn free cores each that the
// given job does not already occupy (malleable extension). It returns
// nil without mutating the pools when the demand cannot be met.
func (p *pools) takeCNs(count, ppn int, jobID string) []string {
	if ppn <= 0 {
		return nil
	}
	chosen := p.chosen[:0]
	p.eachWithFree(ppn, func(l int) bool {
		if slices.Contains(p.cns[l].jobs, jobID) {
			return true // job already occupies this node; keep looking
		}
		chosen = append(chosen, l)
		return len(chosen) < count
	})
	p.chosen = chosen
	if len(chosen) < count {
		return nil
	}
	out := make([]string, 0, count)
	for _, l := range chosen {
		p.commit(l, ppn, jobID)
		out = append(out, p.node(l).Name)
	}
	return out
}

// fit tries to place a job (k compute nodes with ppn cores each plus
// k*acpn accelerators); it returns the chosen hosts without mutating
// the pools when placement fails. acc[i] lists the accelerators of
// hosts[i]; it is nil for a job that asked for none. Both are built
// here once and handed on as they are (pbs.AllocCmd).
func (p *pools) fit(spec pbs.JobSpec, jobID string) (hosts []string, acc [][]string, ok bool) {
	if spec.PPN < 0 {
		return nil, nil, false
	}
	chosen := p.chosen[:0]
	p.eachWithFree(spec.PPN, func(l int) bool {
		chosen = append(chosen, l)
		return len(chosen) < spec.Nodes
	})
	p.chosen = chosen
	if len(chosen) < spec.Nodes || spec.Nodes*spec.ACPN > p.nACs {
		return nil, nil, false
	}
	hosts = make([]string, 0, spec.Nodes)
	if a := spec.ACPN; a > 0 {
		acs := p.takeACs(spec.Nodes * a)
		acc = make([][]string, spec.Nodes)
		for i := range acc {
			acc[i] = acs[i*a : (i+1)*a : (i+1)*a]
		}
	}
	for _, l := range chosen {
		hosts = append(hosts, p.node(l).Name)
		p.commit(l, spec.PPN, jobID)
	}
	return hosts, acc, true
}
