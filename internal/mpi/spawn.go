package mpi

import (
	"fmt"

	"repro/internal/netsim"
)

const (
	tagSpawnReady = -120
	tagMergeReq   = -121
	tagMergeAck   = -122
)

// Spawn launches count instances of a registered command, one per
// entry of hosts (len(hosts) == count), and returns an
// intercommunicator whose remote group is the children's COMM_WORLD
// (MPI_Comm_spawn with a singleton parent). The children boot in
// parallel, each paying Config.ProcStartup, and the call returns once
// all of them have completed MPI_Init — the same blocking behaviour
// the paper's resource-management library relies on for dynamic
// allocation.
func (p *Proc) Spawn(command string, args []string, hosts []string) (*Comm, error) {
	if err := p.alive(); err != nil {
		return nil, err
	}
	rt := p.rt
	fn, ok := rt.commands[command]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCommand, command)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("mpi: Spawn with no hosts")
	}
	rt.sim.Sleep(rt.cfg.SpawnOverhead)

	self := []int{p.id}
	ids, parentID := rt.spawnProcs(command, fn, args, hosts, p, self)
	parentView := &Comm{rt: rt, id: parentID, rank: 0, group: self, remote: ids}
	for range ids {
		if _, err := parentView.Recv(AnySource, tagSpawnReady); err != nil {
			return nil, err
		}
	}
	return parentView, nil
}

// spawnProcs creates one process per host — sharing a new COMM_WORLD,
// with a parent intercommunicator whose remote group is remote — and
// boots them in parallel. It returns the children's ids in rank order
// and the intercommunicator's context id; each child reports to root
// once it is up. The records of one spawn are one allocation.
func (rt *Runtime) spawnProcs(command string, fn SpawnFunc, args, hosts []string, root *Proc, remote []int) ([]int, string) {
	children := make([]Proc, len(hosts))
	ids := make([]int, len(hosts))
	for i, h := range hosts {
		rt.initProc(&children[i], h)
		ids[i] = children[i].id
	}
	worldID := rt.newCommID()
	parentID := rt.newCommID()
	for i := range children {
		c := &children[i]
		c.world = &Comm{rt: rt, id: worldID, rank: i, group: ids}
		c.parent = &Comm{rt: rt, id: parentID, rank: i, group: ids, remote: remote}
	}
	for i := range children {
		rt.boot(command, i, &children[i], root.addr, fn, args)
	}
	return ids, parentID
}

// boot starts spawned child i as the actor "<command>[<i>]@<host>". It
// sleeps through its startup (exec + MPI_Init), reports readiness to the
// spawning root, runs the command body and exits when the body returns.
func (rt *Runtime) boot(command string, i int, c *Proc, root string, fn SpawnFunc, args []string) {
	var buf [64]byte
	name := string(nameBuf(buf[:0]).str(command).str("[").int(i).str("]@").str(c.host))
	rt.sim.Go(name, func() {
		defer rt.exit(c)
		rt.sim.Sleep(rt.cfg.ProcStartup)
		parentID := c.parent.id
		env := envelope{comm: parentID, tag: tagSpawnReady, src: c.world.rank}
		if err := c.ep.Send(root, parentID, env, rt.cfg.ControlBytes); err != nil {
			return
		}
		fn(c, args)
	})
}

// SpawnCollective is MPI_Comm_spawn over an existing
// intracommunicator: every member of c must call it with identical
// arguments; rank 0 performs the launch. The returned
// intercommunicator has c's group as its local group and the
// children's COMM_WORLD as the remote group, so a subsequent
// Merge(false) preserves the existing ranks and appends the children
// — exactly the rank layout of the paper's dynamic allocation
// (Section III-D).
func (c *Comm) SpawnCollective(command string, args []string, hosts []string) (*Comm, error) {
	if err := c.ok(); err != nil {
		return nil, err
	}
	if c.IsInter() {
		return nil, fmt.Errorf("mpi: SpawnCollective on an intercommunicator")
	}
	rt := c.rt
	p, err := c.myProc()
	if err != nil {
		return nil, err
	}
	cb := rt.cfg.ControlBytes
	if c.rank != 0 {
		v, err := c.Bcast(0, nil, cb)
		if err != nil {
			return nil, err
		}
		desc := v.(commDesc)
		if desc.id == "" {
			return nil, fmt.Errorf("mpi: collective spawn failed at root")
		}
		return desc.handleFor(rt, p), nil
	}

	fn, ok := rt.commands[command]
	if !ok {
		// Propagate failure to the group so nobody hangs in Bcast.
		c.Bcast(0, commDesc{}, cb)
		return nil, fmt.Errorf("%w: %q", ErrUnknownCommand, command)
	}
	if len(hosts) == 0 {
		c.Bcast(0, commDesc{}, cb)
		return nil, fmt.Errorf("mpi: SpawnCollective with no hosts")
	}
	rt.sim.Sleep(rt.cfg.SpawnOverhead)

	ids, parentID := rt.spawnProcs(command, fn, args, hosts, p, c.group)
	desc := commDesc{id: parentID, group: c.group, remote: ids}
	parentView := desc.handleFor(rt, p)
	for range ids {
		if _, err := parentView.Recv(AnySource, tagSpawnReady); err != nil {
			return nil, err
		}
	}
	if _, err := c.Bcast(0, desc, cb); err != nil {
		return nil, err
	}
	return parentView, nil
}

// Shrink derives a new intracommunicator containing the subset of the
// current local group given by keep (ranks in the current
// communicator, in the new rank order). Every retained member must
// call Shrink with identical arguments; no messages are exchanged —
// the new context id is derived deterministically from the old one
// and gen, mirroring a local MPI_Comm_create over a shrunken group.
// The DAC library uses it after AC_Free so that later collective
// spawns do not involve released daemons.
func (c *Comm) Shrink(keep []int, gen int) (*Comm, error) {
	if err := c.ok(); err != nil {
		return nil, err
	}
	group := make([]int, 0, len(keep))
	myRank := -1
	for newRank, old := range keep {
		if old < 0 || old >= len(c.group) {
			return nil, fmt.Errorf("%w: shrink keep rank %d", ErrInvalidRank, old)
		}
		group = append(group, c.group[old])
		if old == c.rank {
			myRank = newRank
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("%w: caller rank %d not kept", ErrInvalidRank, c.rank)
	}
	var buf [64]byte
	return &Comm{
		rt:    c.rt,
		id:    string(nameBuf(buf[:0]).str(c.id).str("/shrink").int(gen)),
		rank:  myRank,
		group: group,
	}, nil
}

// mergeInfo is exchanged root-to-root during Merge.
type mergeInfo struct {
	high  bool
	group []int
}

// Merge turns an intercommunicator into an intracommunicator
// (MPI_Intercomm_merge). The group that passes high == true receives
// the upper rank range. Collective over both local groups; the two
// rank-0 processes perform the exchange.
//
// In the DAC architecture the compute node calls Merge(false) so it
// keeps rank 0, while accelerator daemons call Merge(true) and end up
// with ranks 1..x (paper Section III-C/D).
func (c *Comm) Merge(high bool) (*Comm, error) {
	if err := c.ok(); err != nil {
		return nil, err
	}
	if !c.IsInter() {
		return nil, ErrNotIntercomm
	}
	rt := c.rt
	p, err := c.myProc()
	if err != nil {
		return nil, err
	}
	cb := rt.cfg.ControlBytes
	if c.rank == 0 {
		rt.sim.Sleep(rt.cfg.MergeOverhead)
		remoteRoot := rt.proc(c.remote[0])
		if remoteRoot == nil {
			return nil, fmt.Errorf("%w: merge peer gone", ErrInvalidRank)
		}
		// Deterministic initiator: the lower root proc id leads the
		// exchange so both sides agree on the new context id.
		var desc commDesc
		if p.id < remoteRoot.id {
			req := mergeInfo{high: high, group: c.group}
			if err := c.Send(0, tagMergeReq, req, cb); err != nil {
				return nil, err
			}
			st, err := c.Recv(0, tagMergeAck)
			if err != nil {
				return nil, err
			}
			ack := st.Payload.(mergeInfo)
			newID := rt.newCommID()
			merged := mergeGroups(c.group, high, ack.group, ack.high)
			desc = commDesc{id: newID, group: merged}
			// Tell the peer root the final descriptor.
			if err := c.Send(0, tagMergeInfo, desc, cb); err != nil {
				return nil, err
			}
		} else {
			st, err := c.Recv(0, tagMergeReq)
			if err != nil {
				return nil, err
			}
			req := st.Payload.(mergeInfo)
			ack := mergeInfo{high: high, group: c.group}
			if err := c.Send(0, tagMergeAck, ack, cb); err != nil {
				return nil, err
			}
			_ = req
			st, err = c.Recv(0, tagMergeInfo)
			if err != nil {
				return nil, err
			}
			desc = st.Payload.(commDesc)
		}
		// Distribute within the local group.
		if err := c.localBcast(desc); err != nil {
			return nil, err
		}
		return desc.handleFor(rt, p), nil
	}
	desc, err := c.localBcastRecv()
	if err != nil {
		return nil, err
	}
	return desc.handleFor(rt, p), nil
}

// mergeGroups orders the two groups by their high flags. When the
// flags agree, the group of the exchange initiator (ours) comes
// first, matching MPI's implementation-defined tie-break.
func mergeGroups(mine []int, myHigh bool, theirs []int, theirHigh bool) []int {
	var low, highG []int
	switch {
	case myHigh && !theirHigh:
		low, highG = theirs, mine
	case !myHigh && theirHigh:
		low, highG = mine, theirs
	default:
		low, highG = mine, theirs
	}
	out := make([]int, 0, len(low)+len(highG))
	out = append(out, low...)
	return append(out, highG...)
}

// localBcast sends desc to every non-root member of the local group
// over the intercommunicator's side channel.
func (c *Comm) localBcast(desc commDesc) error {
	me, err := c.myProc()
	if err != nil {
		return err
	}
	for i := 1; i < len(c.group); i++ {
		dp, err := c.procOf(c.group, i)
		if err != nil {
			return err
		}
		env := envelope{comm: c.id + "/local", tag: tagNewComm, src: 0, payload: desc}
		if err := me.ep.Send(dp.addr, c.id+"/local", env, c.rt.cfg.ControlBytes); err != nil {
			return err
		}
	}
	return nil
}

// localBcastRecv receives the descriptor distributed by localBcast.
func (c *Comm) localBcastRecv() (commDesc, error) {
	me, err := c.myProc()
	if err != nil {
		return commDesc{}, err
	}
	m, err := me.ep.RecvMatch(func(m *netsim.Message) bool {
		env, ok := m.Payload.(envelope)
		return ok && env.comm == c.id+"/local" && env.tag == tagNewComm
	})
	if err != nil {
		return commDesc{}, err
	}
	return m.Payload.(envelope).payload.(commDesc), nil
}
