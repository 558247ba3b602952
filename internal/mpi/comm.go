package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Comm is a communicator handle held by one process. For an
// intracommunicator, group lists the member proc ids by rank and
// remote is nil. For an intercommunicator, group is the local group
// and remote the remote group.
//
// A Comm value is process-local state; the processes of a
// communicator each hold their own handle sharing the context id.
// group and remote are never written once a handle is built (Merge,
// Shrink and Split build new slices), so handles and the descriptors
// that carry a communicator between processes share them.
type Comm struct {
	rt     *Runtime
	id     string
	rank   int
	group  []int
	remote []int

	mu           sync.Mutex
	disconnected bool
}

// ID returns the communicator context id (shared by all members).
func (c *Comm) ID() string { return c.id }

// Rank returns the caller's rank in the local group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the local group size.
func (c *Comm) Size() int { return len(c.group) }

// RemoteSize returns the remote group size (zero for an
// intracommunicator).
func (c *Comm) RemoteSize() int { return len(c.remote) }

// IsInter reports whether c is an intercommunicator.
func (c *Comm) IsInter() bool { return c.remote != nil }

func (c *Comm) ok() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disconnected {
		return ErrDisconnected
	}
	return nil
}

// myProc returns the caller's Proc (rank lookup in the local group), or
// ErrInvalidRank once the process has exited: a handle kept past its
// owner's exit must fail, not act through whatever holds the endpoint
// now.
func (c *Comm) myProc() (*Proc, error) {
	return c.procOf(c.group, c.rank)
}

// destProc resolves a destination rank: in the remote group for an
// intercommunicator, in the local group otherwise.
func (c *Comm) destProc(rank int) (*Proc, error) {
	if c.IsInter() {
		return c.procOf(c.remote, rank)
	}
	return c.procOf(c.group, rank)
}

// procOf resolves rank in group g to a live process.
func (c *Comm) procOf(g []int, rank int) (*Proc, error) {
	if rank < 0 || rank >= len(g) {
		return nil, fmt.Errorf("%w: %d (group size %d)", ErrInvalidRank, rank, len(g))
	}
	p := c.rt.proc(g[rank])
	if p == nil {
		return nil, fmt.Errorf("%w: %d (process gone)", ErrInvalidRank, rank)
	}
	return p, nil
}

// Send delivers payload to the process with the given rank (remote
// group rank on an intercommunicator). size is the simulated payload
// size in bytes; control messages pass 0.
func (c *Comm) Send(dst, tag int, payload any, size int) error {
	return c.send(dst, tag, payload, size, false)
}

// SendPipelined is Send using the fabric's pipelined bulk protocol.
func (c *Comm) SendPipelined(dst, tag int, payload any, size int) error {
	return c.send(dst, tag, payload, size, true)
}

func (c *Comm) send(dst, tag int, payload any, size int, pipelined bool) error {
	if err := c.ok(); err != nil {
		return err
	}
	dp, err := c.destProc(dst)
	if err != nil {
		return err
	}
	me, err := c.myProc()
	if err != nil {
		return err
	}
	env := envelope{comm: c.id, tag: tag, src: c.rank, payload: payload}
	if pipelined {
		return me.ep.SendPipelined(dp.addr, c.id, env, size)
	}
	return me.ep.Send(dp.addr, c.id, env, size)
}

// Recv blocks until a message on this communicator matching src and
// tag (each possibly AnySource/AnyTag) arrives.
func (c *Comm) Recv(src, tag int) (Status, error) {
	return c.recv(src, tag, 0)
}

// RecvTimeout is Recv with a virtual-time deadline.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Status, error) {
	return c.recv(src, tag, d)
}

func (c *Comm) recv(src, tag int, timeout time.Duration) (Status, error) {
	if err := c.ok(); err != nil {
		return Status{}, err
	}
	match := func(m *netsim.Message) bool {
		env, ok := m.Payload.(envelope)
		if !ok || env.comm != c.id {
			return false
		}
		if src != AnySource && env.src != src {
			return false
		}
		if tag != AnyTag && env.tag != tag {
			return false
		}
		return true
	}
	me, err := c.myProc()
	if err != nil {
		return Status{}, err
	}
	var m *netsim.Message
	if timeout > 0 {
		m, err = me.ep.RecvMatchTimeout(match, timeout)
	} else {
		m, err = me.ep.RecvMatch(match)
	}
	if err != nil {
		return Status{}, err
	}
	env := m.Payload.(envelope)
	st := Status{Source: env.src, Tag: env.tag, Payload: env.payload, Size: m.Size}
	m.Release()
	return st, nil
}

// Collective tags live in a reserved negative range so user tags
// (>= 0) never collide with them.
const (
	tagBarrierIn  = -100
	tagBarrierOut = -101
	tagBcast      = -102
	tagGather     = -103
	tagReduce     = -104
	tagMergeInfo  = -105
	tagDiscon     = -106
)

// Barrier blocks until every member of the (intra)communicator has
// entered it. Linear algorithm: everyone reports to rank 0, rank 0
// releases everyone — two fabric latencies, matching the cost profile
// of small-scale Open MPI barriers.
func (c *Comm) Barrier() error {
	if err := c.ok(); err != nil {
		return err
	}
	if c.Size() == 1 {
		return nil
	}
	cb := c.rt.cfg.ControlBytes
	if c.rank == 0 {
		for i := 1; i < c.Size(); i++ {
			if _, err := c.Recv(AnySource, tagBarrierIn); err != nil {
				return err
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.Send(i, tagBarrierOut, nil, cb); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tagBarrierIn, nil, cb); err != nil {
		return err
	}
	_, err := c.Recv(0, tagBarrierOut)
	return err
}

// Bcast distributes root's payload to every member and returns it.
// Non-roots pass any value (ignored).
func (c *Comm) Bcast(root int, payload any, size int) (any, error) {
	if err := c.ok(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: bcast root %d", ErrInvalidRank, root)
	}
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.Send(i, tagBcast, payload, size); err != nil {
				return nil, err
			}
		}
		return payload, nil
	}
	st, err := c.Recv(root, tagBcast)
	if err != nil {
		return nil, err
	}
	return st.Payload, nil
}

// Gather collects one value per rank at root. At root it returns the
// values indexed by rank; elsewhere it returns nil.
func (c *Comm) Gather(root int, payload any, size int) ([]any, error) {
	if err := c.ok(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: gather root %d", ErrInvalidRank, root)
	}
	if c.rank != root {
		return nil, c.Send(root, tagGather, payload, size)
	}
	out := make([]any, c.Size())
	out[root] = payload
	for i := 0; i < c.Size()-1; i++ {
		st, err := c.Recv(AnySource, tagGather)
		if err != nil {
			return nil, err
		}
		out[st.Source] = st.Payload
	}
	return out, nil
}

// AllreduceSum sums an integer contribution across the communicator
// and returns the total at every rank.
func (c *Comm) AllreduceSum(v int) (int, error) {
	if err := c.ok(); err != nil {
		return 0, err
	}
	cb := c.rt.cfg.ControlBytes
	if c.rank == 0 {
		total := v
		for i := 0; i < c.Size()-1; i++ {
			st, err := c.Recv(AnySource, tagReduce)
			if err != nil {
				return 0, err
			}
			total += st.Payload.(int)
		}
		if _, err := c.Bcast(0, total, cb); err != nil {
			return 0, err
		}
		return total, nil
	}
	if err := c.Send(0, tagReduce, v, cb); err != nil {
		return 0, err
	}
	res, err := c.Bcast(0, nil, cb)
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}

// commDesc is the serialized form of a communicator sent in
// handshakes: context id plus both groups.
type commDesc struct {
	id     string
	group  []int
	remote []int
}

// handleFor instantiates a local handle for the descriptor in the
// calling process p.
func (d commDesc) handleFor(rt *Runtime, p *Proc) *Comm {
	rank := -1
	for i, id := range d.group {
		if id == p.id {
			rank = i
			break
		}
	}
	return &Comm{rt: rt, id: d.id, rank: rank, group: d.group, remote: d.remote}
}

// Disconnect performs a collective teardown of the communicator:
// members synchronize (so no sends are in flight) and mark their
// handles unusable, mirroring MPI_Comm_disconnect. On an
// intercommunicator the two local groups synchronize through their
// roots.
func (c *Comm) Disconnect() error {
	if err := c.ok(); err != nil {
		return err
	}
	cb := c.rt.cfg.ControlBytes
	if c.IsInter() {
		// Local barrier, then root-to-root handshake.
		if err := c.localBarrier(); err != nil {
			return err
		}
		if c.rank == 0 {
			if err := c.Send(0, tagDiscon, nil, cb); err != nil {
				return err
			}
			if _, err := c.Recv(0, tagDiscon); err != nil {
				return err
			}
		}
	} else if err := c.Barrier(); err != nil {
		return err
	}
	c.mu.Lock()
	c.disconnected = true
	c.mu.Unlock()
	return nil
}

// localBarrier synchronizes the local group of an intercommunicator
// using point-to-point messages within the group.
func (c *Comm) localBarrier() error {
	if len(c.group) == 1 {
		return nil
	}
	cb := c.rt.cfg.ControlBytes
	me, err := c.myProc()
	if err != nil {
		return err
	}
	send := func(dstRank, tag int) error {
		dp, err := c.procOf(c.group, dstRank)
		if err != nil {
			return err
		}
		env := envelope{comm: c.id + "/local", tag: tag, src: c.rank}
		return me.ep.Send(dp.addr, c.id+"/local", env, cb)
	}
	recvOne := func(tag int) error {
		m, err := me.ep.RecvMatch(func(m *netsim.Message) bool {
			env, ok := m.Payload.(envelope)
			return ok && env.comm == c.id+"/local" && env.tag == tag
		})
		m.Release()
		return err
	}
	if c.rank == 0 {
		for i := 1; i < len(c.group); i++ {
			if err := recvOne(tagBarrierIn); err != nil {
				return err
			}
		}
		for i := 1; i < len(c.group); i++ {
			if err := send(i, tagBarrierOut); err != nil {
				return err
			}
		}
		return nil
	}
	if err := send(0, tagBarrierIn); err != nil {
		return err
	}
	return recvOne(tagBarrierOut)
}
