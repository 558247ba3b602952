package pbs

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Client is TORQUE's Interface Library (IFL): the client-side API for
// submitting and managing jobs, extended with DynGet/DynFree for the
// DAC environment. A Client is safe for concurrent use by multiple
// actors; every call blocks until the server responds.
type Client struct {
	net      *netsim.Network
	sim      *sim.Simulation
	ep       *netsim.Endpoint
	addr     string // ep's name: where the server sends replies
	serverEP string

	mu      sync.Mutex
	nextReq int
	closed  bool
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
		net:      net,
		sim:      net.Sim(),
		ep:       net.Endpoint(addr),
		addr:     addr,
		serverEP: serverEP,
	}
}

func (c *Client) reqID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReq++
	return c.nextReq
}

// call performs one request/response round trip and returns the
// response payload; the message envelope goes straight back to the
// fabric arena.
func (c *Client) call(req any, match func(m *netsim.Message) bool, timeout time.Duration) (any, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, netsim.ErrClosed
	}
	if err := c.ep.Send(c.serverEP, "pbs", req, 0); err != nil {
		return nil, err
	}
	var m *netsim.Message
	var err error
	if timeout > 0 {
		m, err = c.ep.RecvMatchTimeout(match, timeout)
	} else {
		m, err = c.ep.RecvMatch(match)
	}
	if err != nil {
		return nil, err
	}
	payload := m.Payload
	m.Release()
	return payload, nil
}

// Submit is qsub: it enqueues the job and returns its id.
func (c *Client) Submit(spec JobSpec) (string, error) {
	id := c.reqID()
	m, err := c.call(SubmitReq{ReqID: id, ReplyTo: c.addr, Spec: spec}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(SubmitResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return "", err
	}
	resp := m.(SubmitResp)
	if resp.Err != "" {
		return "", errors.New(resp.Err)
	}
	return resp.JobID, nil
}

// Stat is qstat for one job.
func (c *Client) Stat(jobID string) (JobInfo, error) {
	id := c.reqID()
	m, err := c.call(StatReq{ReqID: id, ReplyTo: c.addr, JobID: jobID}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(StatResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return JobInfo{}, err
	}
	resp := m.(StatResp)
	if resp.Err != "" {
		return JobInfo{}, errors.New(resp.Err)
	}
	return resp.Info, nil
}

// Nodes is pbsnodes: the node database view.
func (c *Client) Nodes() ([]NodeInfo, error) {
	id := c.reqID()
	m, err := c.call(NodesReq{ReqID: id, ReplyTo: c.addr}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(NodesResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return nil, err
	}
	return m.(NodesResp).Nodes, nil
}

// Alter is pbs_alterjob / qalter: change a queued job's priority,
// walltime estimate, or name. Pass nil/zero to leave a field alone.
func (c *Client) Alter(jobID string, priority *int, walltime time.Duration, name string) error {
	id := c.reqID()
	m, err := c.call(AlterReq{
		ReqID: id, ReplyTo: c.addr, JobID: jobID,
		Priority: priority, Walltime: walltime, Name: name,
	}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(AlterResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return err
	}
	if resp := m.(AlterResp); resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Hold is qhold: keep a queued job from being scheduled.
func (c *Client) Hold(jobID string) error { return c.hold(jobID, true) }

// Release is qrls: make a held job schedulable again.
func (c *Client) Release(jobID string) error { return c.hold(jobID, false) }

func (c *Client) hold(jobID string, hold bool) error {
	id := c.reqID()
	m, err := c.call(HoldReq{ReqID: id, ReplyTo: c.addr, JobID: jobID, Hold: hold},
		func(m *netsim.Message) bool {
			r, ok := m.Payload.(HoldResp)
			return ok && r.ReqID == id
		}, 0)
	if err != nil {
		return err
	}
	if resp := m.(HoldResp); resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// List is qstat without arguments: every job in submission order.
func (c *Client) List() ([]JobInfo, error) {
	id := c.reqID()
	m, err := c.call(ListReq{ReqID: id, ReplyTo: c.addr}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(ListResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return nil, err
	}
	return m.(ListResp).Jobs, nil
}

// Delete is qdel.
func (c *Client) Delete(jobID string) error {
	id := c.reqID()
	m, err := c.call(DeleteReq{ReqID: id, ReplyTo: c.addr, JobID: jobID}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(DeleteResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return err
	}
	if resp := m.(DeleteResp); resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Wait blocks until the job completes (or is deleted) and returns its
// final info.
func (c *Client) Wait(jobID string) (JobInfo, error) {
	id := c.reqID()
	m, err := c.call(WaitReq{ReqID: id, ReplyTo: c.addr, JobID: jobID}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(WaitResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return JobInfo{}, err
	}
	resp := m.(WaitResp)
	if resp.Err != "" {
		return JobInfo{}, errors.New(resp.Err)
	}
	return resp.Info, nil
}

// DynGet is the new pbs_dynget() call: request count additional
// network-attached accelerators for a running job. It blocks until
// the server replies — with a grant, or with an error when not enough
// accelerators are available (the application then continues with its
// existing set, paper Section II-B).
func (c *Client) DynGet(jobID, cn string, count int) (DynGrant, error) {
	id := c.reqID()
	m, err := c.call(DynGetReq{ReqID: id, ReplyTo: c.addr, JobID: jobID, CN: cn, Count: count},
		func(m *netsim.Message) bool {
			r, ok := m.Payload.(DynGetResp)
			return ok && r.ReqID == id
		}, 0)
	if err != nil {
		return DynGrant{}, err
	}
	resp := m.(DynGetResp)
	if resp.Err != "" {
		return DynGrant{ClientID: resp.ClientID}, errors.New(resp.Err)
	}
	return DynGrant{ClientID: resp.ClientID, Hosts: resp.Hosts}, nil
}

// DynGetNodes requests count additional compute nodes with ppn cores
// each for a running job — the malleable-application extension the
// paper sketches in Section V. It follows the same dynqueued
// top-priority path as accelerator requests and returns the granted
// hosts; release the set with DynFree.
func (c *Client) DynGetNodes(jobID, cn string, count, ppn int) (DynGrant, error) {
	id := c.reqID()
	m, err := c.call(DynGetReq{
		ReqID: id, ReplyTo: c.addr, JobID: jobID, CN: cn,
		Count: count, Kind: KindCompute, PPN: ppn,
	}, func(m *netsim.Message) bool {
		r, ok := m.Payload.(DynGetResp)
		return ok && r.ReqID == id
	}, 0)
	if err != nil {
		return DynGrant{}, err
	}
	resp := m.(DynGetResp)
	if resp.Err != "" {
		return DynGrant{ClientID: resp.ClientID}, errors.New(resp.Err)
	}
	return DynGrant{ClientID: resp.ClientID, Hosts: resp.Hosts}, nil
}

// DynFree is the new pbs_dynfree() call: release the dynamic set
// identified by clientID. The server acknowledges immediately and
// disassociates the moms in the background.
func (c *Client) DynFree(jobID string, clientID int) error {
	id := c.reqID()
	m, err := c.call(DynFreeReq{ReqID: id, ReplyTo: c.addr, JobID: jobID, ClientID: clientID},
		func(m *netsim.Message) bool {
			r, ok := m.Payload.(DynFreeResp)
			return ok && r.ReqID == id
		}, 0)
	if err != nil {
		return err
	}
	if resp := m.(DynFreeResp); resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Close gives the client's endpoint back to the fabric; every later call
// returns netsim.ErrClosed. Closing twice is a no-op.
func (c *Client) Close() {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if !closed {
		c.net.Release(c.ep)
	}
}
