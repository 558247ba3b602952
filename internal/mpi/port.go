package mpi

import (
	"fmt"

	"repro/internal/netsim"
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
		// Wait for the connect request carrying the remote group.
		m, err := p.ep.RecvMatch(func(m *netsim.Message) bool {
			env, ok := m.Payload.(envelope)
			return ok && env.comm == "port/"+port && env.tag == tagConnReq
		})
		if err != nil {
			return nil, err
		}
		req := m.Payload.(envelope).payload.(connReq)
		p.rt.sim.Sleep(p.rt.cfg.ConnectOverhead)
		desc := commDesc{id: rt.newCommID(), group: local.group, remote: req.group}
		// Reply with the accepted descriptor (remote sees the groups
		// swapped).
		reply := commDesc{id: desc.id, group: req.group, remote: local.group}
		if err := p.ep.Send(req.replyTo, "port/"+port,
			envelope{comm: "port/" + port, tag: tagConnAccept, payload: reply}, cb); err != nil {
			return nil, err
		}
		// Distribute to the local group.
		if _, err := local.Bcast(0, desc, cb); err != nil {
			return nil, err
		}
		return desc.handleFor(rt, p), nil
	}
	v, err := local.Bcast(0, nil, cb)
	if err != nil {
		return nil, err
	}
	return v.(commDesc).handleFor(p.rt, p), nil
}

// connReq is the payload of a connection request: the connecting
// group and where to send the reply.
type connReq struct {
	group   []int
	replyTo string
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
		req := connReq{group: local.group, replyTo: p.addr}
		if err := p.ep.Send(owner.addr, "port/"+port,
			envelope{comm: "port/" + port, tag: tagConnReq, payload: req}, cb); err != nil {
			return nil, err
		}
		m, err := p.ep.RecvMatch(func(m *netsim.Message) bool {
			env, ok := m.Payload.(envelope)
			return ok && env.comm == "port/"+port && env.tag == tagConnAccept
		})
		if err != nil {
			return nil, err
		}
		desc := m.Payload.(envelope).payload.(commDesc)
		if _, err := local.Bcast(0, desc, cb); err != nil {
			return nil, err
		}
		return desc.handleFor(rt, p), nil
	}
	v, err := local.Bcast(0, nil, cb)
	if err != nil {
		return nil, err
	}
	return v.(commDesc).handleFor(p.rt, p), nil
}
