package mpi

import (
	"fmt"

	"repro/internal/sim"
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

// spawned is one child of a spawn: its process, both of its
// communicator handles and what its boot actor needs.
type spawned struct {
	proc          Proc
	world, parent Comm
	root          *Proc // where the child reports once it is up
	fn            SpawnFunc
	args          []string
}

// spawnProcs creates one process per host — sharing a new COMM_WORLD,
// with a parent intercommunicator whose remote group is remote — and
// boots them in parallel. It returns the children's ids in rank order
// and the intercommunicator's context id; each child reports to root
// once it is up. The records of one spawn are one allocation.
func (rt *Runtime) spawnProcs(command string, fn SpawnFunc, args, hosts []string, root *Proc, remote []int) ([]int, string) {
	children := make([]spawned, len(hosts))
	ids := make([]int, len(hosts))
	for i, h := range hosts {
		rt.initProc(&children[i].proc, h)
		ids[i] = children[i].proc.id
	}
	worldID := rt.newCommID()
	parentID := rt.newCommID()
	for i := range children {
		c := &children[i]
		c.world = Comm{rt: rt, id: worldID, rank: i, group: ids}
		c.parent = Comm{rt: rt, id: parentID, rank: i, group: ids, remote: remote}
		c.proc.world, c.proc.parent = &c.world, &c.parent
		c.root, c.fn, c.args = root, fn, args
		rt.sim.GoArg(sim.ActorName{Kind: command, Host: c.proc.host}, boot, c)
	}
	return ids, parentID
}

// boot is a spawned child's actor (GoArg with its *spawned record),
// named "<command>@<host>". It sleeps through its startup (exec +
// MPI_Init), reports readiness to the spawning root, runs the command
// body and exits when the body returns.
func boot(arg any) {
	c := arg.(*spawned)
	p := &c.proc
	rt := p.rt
	defer rt.exit(p)
	rt.sim.Sleep(rt.cfg.ProcStartup)
	ready := envelope{comm: c.parent.id, tag: tagSpawnReady, src: c.world.rank}
	if err := p.post(c.root, c.parent.id, ready, rt.cfg.ControlBytes, false); err != nil {
		return
	}
	c.fn(p, c.args)
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
		env, err := c.bcast(0, envelope{}, cb)
		if err != nil {
			return nil, err
		}
		if env.desc.id == "" {
			return nil, fmt.Errorf("mpi: collective spawn failed at root")
		}
		return env.desc.handleFor(rt, p), nil
	}

	fn, ok := rt.commands[command]
	if !ok {
		// Propagate failure to the group so nobody hangs in Bcast.
		c.bcast(0, envelope{}, cb)
		return nil, fmt.Errorf("%w: %q", ErrUnknownCommand, command)
	}
	if len(hosts) == 0 {
		c.bcast(0, envelope{}, cb)
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
	if _, err := c.bcast(0, envelope{desc: desc}, cb); err != nil {
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
		// Each root offers its group and flag; the initiator answers
		// with the merged descriptor.
		offer := envelope{high: high, desc: commDesc{group: c.group}}
		var desc commDesc
		if p.id < remoteRoot.id {
			offer.tag = tagMergeReq
			if err := c.send(0, offer, cb, false); err != nil {
				return nil, err
			}
			ack, _, err := c.recv(0, tagMergeAck, 0)
			if err != nil {
				return nil, err
			}
			desc = commDesc{id: rt.newCommID(), group: mergeGroups(c.group, high, ack.desc.group, ack.high)}
			if err := c.send(0, envelope{tag: tagMergeInfo, desc: desc}, cb, false); err != nil {
				return nil, err
			}
		} else {
			if _, _, err := c.recv(0, tagMergeReq, 0); err != nil {
				return nil, err
			}
			offer.tag = tagMergeAck
			if err := c.send(0, offer, cb, false); err != nil {
				return nil, err
			}
			info, _, err := c.recv(0, tagMergeInfo, 0)
			if err != nil {
				return nil, err
			}
			desc = info.desc
		}
		// Distribute within the local group.
		if err := c.localBcast(desc); err != nil {
			return nil, err
		}
		return desc.handleFor(rt, p), nil
	}
	env, err := c.recvLocal(tagNewComm)
	if err != nil {
		return nil, err
	}
	return env.desc.handleFor(rt, p), nil
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
	for i := 1; i < len(c.group); i++ {
		if err := c.sendLocal(i, envelope{tag: tagNewComm, desc: desc}); err != nil {
			return err
		}
	}
	return nil
}
