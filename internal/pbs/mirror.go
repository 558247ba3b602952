package pbs

import "repro/internal/netsim"

// NodeMirror is a scheduler's copy of the server's node table, kept
// current by the deltas of successive SchedInfo rounds instead of a
// per-cycle copy of the whole table. The zero value holds nothing; its
// first Fetch — like any round the server cannot serve a delta for —
// brings every node.
type NodeMirror struct {
	// Nodes is the table in node-database order. It is valid between
	// Fetch calls; the next Fetch rewrites the changed entries in place
	// (including their Jobs buffers).
	Nodes []NodeInfo
	req   SchedInfoReq
}

// Fetch runs one SchedInfo round over the scheduler's endpoint and
// applies the answer's node delta. The caller owns the returned answer
// until it calls Release.
func (m *NodeMirror) Fetch(ep *netsim.Endpoint, serverEP string) (*SchedInfoResp, error) {
	resp, err := m.Request(ep, serverEP)
	if err == nil {
		m.Apply(resp)
	}
	return resp, err
}

// Request is the round trip of Fetch alone. A scheduler whose mirror
// another goroutine may read (Maui's audit sweep) calls Request, then
// Apply under the lock that reader takes.
func (m *NodeMirror) Request(ep *netsim.Endpoint, serverEP string) (*SchedInfoResp, error) {
	m.req.ReqID++
	m.req.ReplyTo = ep.Name()
	id := m.req.ReqID
	if err := ep.Send(serverEP, "pbs", &m.req, 0); err != nil {
		return nil, err
	}
	msg, err := ep.RecvMatch(func(msg *netsim.Message) bool {
		r, ok := msg.Payload.(*SchedInfoResp)
		return ok && r.ReqID == id
	})
	if err != nil {
		return nil, err
	}
	resp := msg.Payload.(*SchedInfoResp)
	msg.Release()
	return resp, nil
}

// Apply rewrites the mirror's entries the answer's delta names and
// takes over its generation. Every answer of Request must be applied,
// in order, before the next Request.
func (m *NodeMirror) Apply(resp *SchedInfoResp) {
	for i := range resp.Nodes {
		d := &resp.Nodes[i]
		for len(m.Nodes) <= d.Index {
			m.Nodes = append(m.Nodes, NodeInfo{})
		}
		m.Nodes[d.Index].copyFrom(&d.Info)
	}
	m.req.NodeGen = resp.NodeGen
}
