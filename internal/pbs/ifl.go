package pbs

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Client is TORQUE's Interface Library (IFL): the client-side API for
// submitting and managing jobs, extended with DynGet/DynFree for the
// DAC environment. A Client may be shared by several actors of one
// simulation; every call blocks until the server responds.
type Client struct {
	net    *netsim.Network
	sim    *sim.Simulation
	ep     *netsim.Endpoint
	addr   string // ep's name: where the server sends replies
	server netsim.Addr

	nextReq int
	closed  bool
	out     Outbox // what the client sends
}

// NewClient creates an IFL client with its own fabric endpoint. name
// distinguishes multiple clients (pass the calling host). The
// uniquifying sequence number is per-fabric, so identical runs mint
// identical endpoint names and audit recordings stay byte-identical.
func NewClient(net *netsim.Network, name, serverEP string) *Client {
	var buf [64]byte
	b := append(append(append(buf[:0], "ifl/"...), name...), '#')
	addr := string(strconv.AppendInt(b, int64(net.NameSeq()), 10))
	return &Client{
		net:    net,
		sim:    net.Sim(),
		ep:     net.Endpoint(addr),
		addr:   addr,
		server: net.Resolve(serverEP),
	}
}

func (c *Client) reqID() int {
	c.nextReq++
	return c.nextReq
}

// call sends req and returns a copy of the first reply answer accepts,
// whose record it then hands back to the server. The copy is taken
// inside the matcher: handing the returned message to answer would move
// it to the heap.
func call[R any](c *Client, req any, answer func(*netsim.Message) (*R, bool)) (R, error) {
	var r R
	err := netsim.ErrClosed
	if !c.closed {
		err = c.ep.SendTo(&c.server, "pbs", req, 0, 0)
	}
	if err != nil {
		Recycle(req)
		return r, err
	}
	msg, err := c.ep.RecvMatch(func(m *netsim.Message) bool {
		v, ok := answer(m)
		if ok {
			r = *v
		}
		return ok
	})
	Recycle(msg.Payload)
	return r, err
}

// failed is the error of a call that returned err and a reply carrying
// the server's error text.
func failed(err error, text string) error {
	if err == nil && text != "" {
		return errors.New(text)
	}
	return err
}

// Submit is qsub: it enqueues the job and returns its id.
func (c *Client) Submit(spec JobSpec) (string, error) {
	id := c.reqID()
	r, err := call(c, Take(&c.out, SubmitReq{ReqID: id, ReplyTo: c.addr, Spec: spec}), func(m *netsim.Message) (*SubmitResp, bool) {
		r, ok := m.Payload.(*SubmitResp)
		return r, ok && r.ReqID == id
	})
	return r.JobID, failed(err, r.Err)
}

// Stat is qstat for one job.
func (c *Client) Stat(jobID string) (JobInfo, error) {
	id := c.reqID()
	r, err := call(c, Take(&c.out, StatReq{ReqID: id, ReplyTo: c.addr, JobID: jobID}), func(m *netsim.Message) (*StatResp, bool) {
		r, ok := m.Payload.(*StatResp)
		return r, ok && r.ReqID == id
	})
	return r.Info, failed(err, r.Err)
}

// Nodes is pbsnodes: the node database view.
func (c *Client) Nodes() ([]NodeInfo, error) {
	id := c.reqID()
	r, err := call(c, Take(&c.out, NodesReq{ReqID: id, ReplyTo: c.addr}), func(m *netsim.Message) (*NodesResp, bool) {
		r, ok := m.Payload.(*NodesResp)
		return r, ok && r.ReqID == id
	})
	return r.Nodes, err
}

// Alter is pbs_alterjob / qalter: change a queued job's priority,
// walltime estimate, or name. Pass nil/zero to leave a field alone.
func (c *Client) Alter(jobID string, priority *int, walltime time.Duration, name string) error {
	id := c.reqID()
	r, err := call(c, Take(&c.out, AlterReq{
		ReqID: id, ReplyTo: c.addr, JobID: jobID,
		Priority: priority, Walltime: walltime, Name: name,
	}), func(m *netsim.Message) (*AlterResp, bool) {
		r, ok := m.Payload.(*AlterResp)
		return r, ok && r.ReqID == id
	})
	return failed(err, r.Err)
}

// Hold is qhold: keep a queued job from being scheduled.
func (c *Client) Hold(jobID string) error { return c.hold(jobID, true) }

// Release is qrls: make a held job schedulable again.
func (c *Client) Release(jobID string) error { return c.hold(jobID, false) }

func (c *Client) hold(jobID string, hold bool) error {
	id := c.reqID()
	r, err := call(c, Take(&c.out, HoldReq{ReqID: id, ReplyTo: c.addr, JobID: jobID, Hold: hold}), func(m *netsim.Message) (*HoldResp, bool) {
		r, ok := m.Payload.(*HoldResp)
		return r, ok && r.ReqID == id
	})
	return failed(err, r.Err)
}

// List is qstat without arguments: every job in submission order.
func (c *Client) List() ([]JobInfo, error) {
	id := c.reqID()
	r, err := call(c, Take(&c.out, ListReq{ReqID: id, ReplyTo: c.addr}), func(m *netsim.Message) (*ListResp, bool) {
		r, ok := m.Payload.(*ListResp)
		return r, ok && r.ReqID == id
	})
	return r.Jobs, err
}

// Delete is qdel.
func (c *Client) Delete(jobID string) error {
	id := c.reqID()
	r, err := call(c, Take(&c.out, DeleteReq{ReqID: id, ReplyTo: c.addr, JobID: jobID}), func(m *netsim.Message) (*DeleteResp, bool) {
		r, ok := m.Payload.(*DeleteResp)
		return r, ok && r.ReqID == id
	})
	return failed(err, r.Err)
}

// Wait blocks until the job completes (or is deleted) and returns its
// final info.
func (c *Client) Wait(jobID string) (JobInfo, error) {
	id := c.reqID()
	r, err := call(c, Take(&c.out, WaitReq{ReqID: id, ReplyTo: c.addr, JobID: jobID}), func(m *netsim.Message) (*WaitResp, bool) {
		r, ok := m.Payload.(*WaitResp)
		return r, ok && r.ReqID == id
	})
	return r.Info, failed(err, r.Err)
}

// DynGet is the new pbs_dynget() call: request count additional
// network-attached accelerators for a running job. It blocks until
// the server replies — with a grant, or with an error when not enough
// accelerators are available (the application then continues with its
// existing set, paper Section II-B).
func (c *Client) DynGet(jobID, cn string, count int) (DynGrant, error) {
	return c.dynGet(DynGetReq{JobID: jobID, CN: cn, Count: count})
}

// DynGetNodes requests count additional compute nodes with ppn cores
// each for a running job — the malleable-application extension the
// paper sketches in Section V. It follows the same dynqueued
// top-priority path as accelerator requests and returns the granted
// hosts; release the set with DynFree.
func (c *Client) DynGetNodes(jobID, cn string, count, ppn int) (DynGrant, error) {
	return c.dynGet(DynGetReq{JobID: jobID, CN: cn, Count: count, Kind: KindCompute, PPN: ppn})
}

func (c *Client) dynGet(req DynGetReq) (DynGrant, error) {
	id := c.reqID()
	req.ReqID, req.ReplyTo = id, c.addr
	r, err := call(c, Take(&c.out, req), func(m *netsim.Message) (*DynGetResp, bool) {
		r, ok := m.Payload.(*DynGetResp)
		return r, ok && r.ReqID == id
	})
	return DynGrant{ClientID: r.ClientID, Hosts: r.Hosts}, failed(err, r.Err)
}

// DynFree is the new pbs_dynfree() call: release the dynamic set
// identified by clientID. The server acknowledges immediately and
// disassociates the moms in the background.
func (c *Client) DynFree(jobID string, clientID int) error {
	id := c.reqID()
	r, err := call(c, Take(&c.out, DynFreeReq{ReqID: id, ReplyTo: c.addr, JobID: jobID, ClientID: clientID}), func(m *netsim.Message) (*DynFreeResp, bool) {
		r, ok := m.Payload.(*DynFreeResp)
		return r, ok && r.ReqID == id
	})
	return failed(err, r.Err)
}

// Close gives the client's endpoint back to the fabric; every later call
// returns netsim.ErrClosed. Closing twice is a no-op.
func (c *Client) Close() {
	if !c.closed {
		c.closed = true
		c.net.Release(c.ep)
	}
}
