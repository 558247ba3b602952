package pbs

import (
	"cmp"
	"slices"

	"repro/internal/netsim"
)

// Mirror is a scheduler's copy of the server's view — nodes, queued and
// running jobs — kept current by the deltas of successive SchedInfo
// rounds; the zero value holds nothing. It is valid between Fetch calls:
// the next rewrites the changed nodes in place (Jobs buffers included)
// and the changed jobs' entries, which it also reuses for other jobs.
type Mirror struct {
	Nodes []NodeInfo
	// Queued holds the queued jobs in Seq order, Groups them again by
	// owner and base priority (package maui), Running the running jobs.
	Queued  JobList
	Groups  []*JobGroup
	Running []*MirrorJob

	jobs   map[int]*MirrorJob // Queued and Running by Seq
	groups map[groupKey]*JobGroup
	free   []*MirrorJob
	req    SchedInfoReq
}

// MirrorJob is a mirror's entry: a job's latest view.
type MirrorJob struct {
	SchedJobView
	at int // index in Running while running
}

// JobList is a list of mirror entries in Seq order.
type JobList []*MirrorJob

// JobGroup is the queued jobs of one owner at one base priority.
type JobGroup struct {
	groupKey
	Jobs JobList
}

type groupKey struct {
	Owner    string
	Priority int
}

// put inserts j at its place (in) or takes it off.
func (l *JobList) put(j *MirrorJob, in bool) {
	if n := len(*l); in && (n == 0 || (*l)[n-1].Seq < j.Seq) {
		*l = append(*l, j)
		return
	}
	i, found := slices.BinarySearchFunc(*l, j.Seq, func(e *MirrorJob, seq int) int { return cmp.Compare(e.Seq, seq) })
	if in {
		*l = slices.Insert(*l, i, j)
	} else if found {
		*l = slices.Delete(*l, i, i+1)
	}
}

// Fetch runs one SchedInfo round over the scheduler's endpoint with the
// server and applies the answer's deltas. The caller owns the returned
// answer until it calls Release.
func (m *Mirror) Fetch(ep *netsim.Endpoint, server *netsim.Addr) (*SchedInfoResp, error) {
	m.req.ReqID++
	m.req.ReplyTo = ep.Name()
	id := m.req.ReqID
	if err := ep.SendTo(server, "pbs", &m.req, 0, 0); err != nil {
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
	m.Apply(resp)
	return resp, nil
}

// Apply rewrites what the answer's deltas name and takes over its
// generation. Fetch applies each answer it receives.
func (m *Mirror) Apply(resp *SchedInfoResp) {
	for i := range resp.Nodes {
		d := &resp.Nodes[i]
		for len(m.Nodes) <= d.Index {
			m.Nodes = append(m.Nodes, NodeInfo{})
		}
		m.Nodes[d.Index].copyFrom(&d.Info)
	}
	if m.jobs == nil {
		m.jobs, m.groups = make(map[int]*MirrorJob), make(map[groupKey]*JobGroup)
	}
	if resp.Full { // every job the answer does not list is gone
		for seq := range m.jobs {
			m.apply(&SchedJobView{Seq: seq})
		}
	}
	for i := range resp.Jobs {
		m.apply(&resp.Jobs[i])
	}
	m.req.Gen = resp.Gen
}

// apply takes one job view in: the one map lookup a view costs.
func (m *Mirror) apply(v *SchedJobView) {
	j := m.jobs[v.Seq]
	switch {
	case j != nil && j.Phase == v.Phase && (v.Phase == PhaseRunning || j.Spec.Owner == v.Spec.Owner && j.Spec.Priority == v.Spec.Priority):
		j.SchedJobView = *v // on the same lists: a start report, a qalter
		return
	case j != nil:
		m.file(j, false)
	case v.Phase == PhaseGone:
		return
	case len(m.free) > 0:
		j, m.free = m.free[len(m.free)-1], m.free[:len(m.free)-1]
	default:
		j = new(MirrorJob)
	}
	m.jobs[v.Seq] = j
	if v.Phase == PhaseGone {
		delete(m.jobs, v.Seq)
		*j = MirrorJob{} // the spec, and its script, go with the job
		m.free = append(m.free, j)
		return
	}
	j.SchedJobView = *v
	m.file(j, true)
}

// file puts j on (in) or takes it off the lists of its phase.
func (m *Mirror) file(j *MirrorJob, in bool) {
	if j.Phase == PhaseRunning && in {
		j.at, m.Running = len(m.Running), append(m.Running, j)
		return
	} else if j.Phase == PhaseRunning {
		last := m.Running[len(m.Running)-1]
		last.at, m.Running[j.at], m.Running = j.at, last, m.Running[:len(m.Running)-1]
		return
	}
	k := groupKey{j.Spec.Owner, j.Spec.Priority}
	g := m.groups[k]
	if g == nil {
		g = &JobGroup{groupKey: k}
		m.groups[k] = g
		m.Groups = append(m.Groups, g)
	}
	g.Jobs.put(j, in)
	m.Queued.put(j, in)
}

// Job returns the entry of a queued or running job (nil for any other).
func (m *Mirror) Job(id string) *MirrorJob {
	if j := m.jobs[jobSeq(id)]; j != nil && j.ID == id {
		return j
	}
	return nil
}
