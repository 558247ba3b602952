package mpi

import (
	"fmt"
)

// portState is the rendezvous object behind an MPI port name.
type portState struct {
	name  string
	owner int // proc id of the process that opened the port
}

// OpenPort publishes a port (MPI_Open_port). The returned name can be
// handed to other processes out of band — in the DAC architecture the
// accelerator daemons write it to a file the compute node reads.
func (p *Proc) OpenPort() string {
	rt := p.rt
	rt.nextPort++
	var buf [32]byte
	name := string(nameBuf(buf[:0]).str("port").int(rt.nextPort).str("@p").int(p.id))
	rt.ports[name] = &portState{name: name, owner: p.id}
	return name
}

// ClosePort withdraws a port.
func (p *Proc) ClosePort(name string) {
	rt := p.rt
	delete(rt.ports, name)
}

// Port handshake tags (reserved negative range, see comm.go).
const (
	tagConnReq    = -110
	tagConnAccept = -111
	tagNewComm    = -112
)

// Accept waits for a connection on the port and returns an
// intercommunicator whose remote group is the connecting
// communicator's group (MPI_Comm_accept). It is collective over local:
// every member must call it; rank 0 must be the port owner.
func (p *Proc) Accept(port string, local *Comm) (*Comm, error) {
	if err := p.alive(); err != nil {
		return nil, err
	}
	if err := local.ok(); err != nil {
		return nil, err
	}
	cb := p.rt.cfg.ControlBytes
	if local.rank == 0 {
		rt := p.rt
		ps, ok := rt.ports[port]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownPort, port)
		}
		if ps.owner != p.id {
			return nil, fmt.Errorf("mpi: Accept on port %q by non-owner process %d", port, p.id)
		}
		// Wait for the connect request carrying the remote group; its
		// root sent it and takes the reply.
		tag := "port/" + port
		req, _, err := p.take(pattern{comm: tag, src: AnySource, tag: tagConnReq}, 0)
		if err != nil {
			return nil, err
		}
		p.rt.sim.Sleep(p.rt.cfg.ConnectOverhead)
		remote := req.desc.group
		desc := commDesc{id: rt.newCommID(), group: local.group, remote: remote}
		peer := rt.proc(remote[0])
		if peer == nil {
			return nil, fmt.Errorf("%w: connecting process gone", ErrInvalidRank)
		}
		// Reply with the accepted descriptor (remote sees the groups
		// swapped).
		reply := envelope{comm: tag, tag: tagConnAccept, desc: commDesc{id: desc.id, group: remote, remote: local.group}}
		if err := p.post(peer, tag, reply, cb, false); err != nil {
			return nil, err
		}
		// Distribute to the local group.
		if _, err := local.bcast(0, envelope{desc: desc}, cb); err != nil {
			return nil, err
		}
		return desc.handleFor(rt, p), nil
	}
	env, err := local.bcast(0, envelope{}, cb)
	if err != nil {
		return nil, err
	}
	return env.desc.handleFor(p.rt, p), nil
}

// Connect establishes an intercommunicator with the process group
// listening on port (MPI_Comm_connect). Collective over local; rank 0
// performs the handshake.
func (p *Proc) Connect(port string, local *Comm) (*Comm, error) {
	if err := p.alive(); err != nil {
		return nil, err
	}
	if err := local.ok(); err != nil {
		return nil, err
	}
	cb := p.rt.cfg.ControlBytes
	if local.rank == 0 {
		rt := p.rt
		ps, ok := rt.ports[port]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownPort, port)
		}
		owner := rt.proc(ps.owner)
		if owner == nil {
			return nil, fmt.Errorf("%w: %q (owner gone)", ErrUnknownPort, port)
		}
		p.rt.sim.Sleep(p.rt.cfg.ConnectOverhead)
		tag := "port/" + port
		req := envelope{comm: tag, tag: tagConnReq, desc: commDesc{group: local.group}}
		if err := p.post(owner, tag, req, cb, false); err != nil {
			return nil, err
		}
		reply, _, err := p.take(pattern{comm: tag, src: AnySource, tag: tagConnAccept}, 0)
		if err != nil {
			return nil, err
		}
		if _, err := local.bcast(0, envelope{desc: reply.desc}, cb); err != nil {
			return nil, err
		}
		return reply.desc.handleFor(rt, p), nil
	}
	env, err := local.bcast(0, envelope{}, cb)
	if err != nil {
		return nil, err
	}
	return env.desc.handleFor(p.rt, p), nil
}
