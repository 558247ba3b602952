package pbs

import (
	"slices"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MomEndpoint returns the fabric name of the pbs_mom on a host.
func MomEndpoint(host string) string { return momPrefix + host }

// momPrefix is what a mom's fabric name puts before its host.
const momPrefix = "pbs/mom@"

// MomParams is the mom's cost model.
type MomParams struct {
	// JoinCost is the processing time of a JOIN_JOB on a sister mom.
	JoinCost time.Duration
	// DynJoinCost is the processing time of a DYNJOIN_JOB on a newly
	// added accelerator mom. The mother superior drives DYNJOIN
	// serially, so the batch-system share of a dynamic allocation
	// grows with the request size (Figure 7(b)).
	DynJoinCost time.Duration
	// StartCost is the mother superior's job-startup overhead.
	StartCost time.Duration
	// HeartbeatEvery enables periodic liveness reports to the server
	// (zero disables; pair with ServerParams.DeadAfter).
	HeartbeatEvery time.Duration
}

// DaemonStarter launches the accelerator daemons backing one compute
// node's statically allocated accelerator set. It is installed by the
// cluster wiring (the DAC layer provides the implementation) and runs
// asynchronously while the job script starts, as in paper Figure 5.
// cause is the trace-span id of the mother superior's startup, so the
// daemon-boot spans join the job's causal chain (0 when untraced).
type DaemonStarter func(jobID, cn string, acHosts []string, cause uint64)

// Mom is a pbs_mom daemon: it joins jobs, launches tasks, and — in
// the DAC environment — handles dynamic addition and removal of
// accelerator hosts.
type Mom struct {
	net    *netsim.Network
	sim    *sim.Simulation
	host   string
	ep     *netsim.Endpoint
	server netsim.Addr
	params MomParams

	// Cluster is the opaque handle exposed to job scripts through
	// JobEnv.Cluster.
	Cluster any
	// StartDaemons, when non-nil, is invoked by the mother superior
	// for each compute node of a DAC job with static accelerators.
	StartDaemons DaemonStarter
	// Prologue and Epilogue, when non-nil, run around every task on
	// this mom — TORQUE's per-job prologue/epilogue scripts (site
	// setup such as scratch directories or GPU health checks). They
	// run in the task's actor; an Epilogue runs even if the job
	// script panics the conventional way (returns normally).
	Prologue func(env *JobEnv)
	Epilogue func(env *JobEnv)

	// Only the handler (on the controller) and the task actors it spawns
	// touch what follows, one at a time and never from outside: no lock.
	station station            // serves all but the acks (set by Start)
	jobs    map[string]*momJob // made by the first message served
	waits   []*momOp           // the mother superior's ops awaiting an ack
	free    *momOp             // finished dynamic ops, for reuse
	out     Outbox             // what the mom sends, and its sister jobs
	// runTask and joinSisters, bound by the first message served: no
	// closure per spawn or timer, and none on a host that serves nothing.
	runTaskFn, joinFn func(any)
}

type momJob struct {
	record // a sister's is from out; the mother superior's, which a start holds, on none
	// hosts is the current full host set of the job. The list is shared
	// (with the server's command, the sisters, the running scripts) and
	// never written: a change of the set installs a new list.
	hosts []string
	// peers are the moms on hosts, resolved once per set by the mother
	// superior (setHosts); peerBuf holds a narrow job's.
	peers   []netsim.Addr
	peerBuf [2]netsim.Addr
	// ms is the mother superior, resolved when the job is joined: the
	// job's tasks on this host report to it.
	ms       netsim.Addr
	tasksRun int   // compute node tasks still running (MS only)
	start    momOp // the mother superior's start, until its tail has run
}

// A momOp is the mother superior waiting on its sisters (paper Figure 5,
// §III-D): a start's JOIN fan-out awaits host "" until acks is 0; a
// dynamic addition or removal asks Hosts[i] and awaits its ack before the
// next. (job, host) finds the op: a job has one start and one op a host.
type momOp struct {
	job, host string
	req       any     // the *RunJobMsg, *DynAddMsg or *DynRemoveMsg, handed back at the end
	mj        *momJob // a start's job: a qdel may release it before the tail
	acks, i   int     // acks outstanding; the next of the dynamic Hosts
	sp        *trace.Span
	next      *momOp // on the free list
}

// NewMom creates the mom daemon for a host; call Start to install its
// handler.
func NewMom(net *netsim.Network, host string, params MomParams) *Mom {
	return &NewMoms(net, []string{host}, params)[0]
}

// NewMoms creates the mom daemons of hosts, in order, as one block: a
// cluster's moms cost one object, not one a host.
func NewMoms(net *netsim.Network, hosts []string, params MomParams) []Mom {
	moms := make([]Mom, len(hosts))
	server := net.Resolve(ServerEndpoint)
	for i, host := range hosts {
		moms[i] = Mom{net: net, sim: net.Sim(), host: host, ep: net.Endpoint(MomEndpoint(host)), server: server, params: params}
	}
	return moms
}

// Host returns the host this mom manages.
func (m *Mom) Host() string { return m.host }

// Start installs the mom's endpoint handler, a station of the model in
// station.go (plus its heartbeat sender when enabled).
// Without heartbeats it allocates nothing.
func (m *Mom) Start() {
	m.startHeartbeats()
	m.station = station{sim: m.sim, batch: 1, daemon: m}
	m.ep.SetHandler(momReceive, m)
}

// momReceive is the mom endpoint's handler, arg the mom. An ack goes to
// the op awaiting it ahead of the station's queue (where it would wait
// out a JOIN), or, stray or duplicate, nowhere, and is handed back.
func momReceive(arg any, msg *netsim.Message) {
	m := arg.(*Mom)
	var job, host string
	switch ack := msg.Payload.(type) {
	case *JoinAck:
		job = ack.JobID
		ack.recycle(ack)
	case *DynJoinAck:
		job, host = ack.JobID, ack.Host
		ack.recycle(ack)
	case *DisJoinAck:
		job, host = ack.JobID, ack.Host
		ack.recycle(ack)
	default:
		m.station.offer(msg)
		return
	}
	for i, op := range m.waits {
		if op.job == job && op.host == host {
			if op.acks--; op.acks == 0 {
				m.waits = slices.Delete(m.waits, i, i+1)
				m.advance(op)
			}
			return
		}
	}
}

// cost is the mom's service time for a message: a JOIN and a DYNJOIN
// cost their processing time, the rest is handled on arrival.
func (m *Mom) cost(msg *netsim.Message) time.Duration {
	switch msg.Payload.(type) {
	case *JoinJobMsg:
		return m.params.JoinCost
	case *DynJoinJobMsg:
		return m.params.DynJoinCost
	}
	return 0
}

// serve is the station's service: handle, once the job table and the
// functions it schedules exist. Only a mom that serves something
// builds them.
func (m *Mom) serve(msg *netsim.Message) *record {
	if m.jobs == nil {
		m.jobs, m.runTaskFn, m.joinFn = make(map[string]*momJob), m.runTask, m.joinSisters
	}
	return m.handle(msg)
}

// resolve resolves the mom on host in the fabric's endpoint table. The
// name is built on the stack: a resolution allocates nothing.
func (m *Mom) resolve(host string) netsim.Addr {
	var buf [64]byte
	return m.net.ResolveBytes(append(append(buf[:0], momPrefix...), host...))
}

// setHosts installs the host set of a job this mom is the mother
// superior of, and resolves the set's moms.
func (m *Mom) setHosts(j *momJob, hosts []string) {
	j.hosts = hosts
	peers := j.peers[:0]
	if peers == nil {
		peers = j.peerBuf[:0]
	}
	for _, h := range hosts {
		peers = append(peers, m.resolve(h))
	}
	j.peers = peers
}

// send answers a request at the name it gave.
func (m *Mom) send(to string, payload any) {
	if m.ep.Send(to, "pbs", payload, 0) != nil {
		Recycle(payload)
	}
}

// sendTo sends through a resolved handle, carrying the trace-span id
// that produced the message, for the fabric's delivery-span causal link.
func (m *Mom) sendTo(to *netsim.Addr, payload any, cause uint64) {
	if m.ep.SendTo(to, "pbs", payload, 0, cause) != nil {
		Recycle(payload)
	}
}

// handle serves one message once its cost is paid; it runs on the
// controller and must not block: a wait on the sisters is a momOp, and a
// job script a task actor, which keep the payload (never the envelope)
// until they end. It returns the record to hand back, nil for a kept one.
func (m *Mom) handle(msg *netsim.Message) (r *record) {
	switch req := msg.Payload.(type) {
	case *RunJobMsg:
		// mom.start covers the full mother-superior startup: JOIN fan-out,
		// daemon kick-off, and task dispatch (paper Figure 5).
		j := &momJob{start: momOp{job: req.JobID, req: req}}
		if trc := m.sim.Tracer(); trc != nil {
			j.start.sp = trc.Start(m.ep.Name(), "mom.start", "job", req.JobID)
		}
		j.start.sp.Link(req.Cause) // server's alloc span
		if m.params.StartCost > 0 {
			m.sim.AfterArg(m.params.StartCost, m.joinFn, j)
		} else {
			m.joinSisters(j)
		}
		return nil
	case *JoinJobMsg:
		m.jobs[req.JobID] = Take(&m.out, momJob{hosts: req.Hosts, ms: m.resolve(req.MS)})
		m.send(req.ReplyTo, Take(&m.out, JoinAck{JobID: req.JobID, Host: m.host}))
		r = &req.record
	case *DynJoinJobMsg:
		m.jobs[req.JobID] = Take(&m.out, momJob{})
		m.send(req.ReplyTo, Take(&m.out, DynJoinAck{JobID: req.JobID, Host: m.host}))
		r = &req.record
	case *DisJoinJobMsg:
		// Kill remaining tasks (accelerator daemon remains) and leave
		// the job entirely.
		m.leave(req.JobID)
		m.send(req.ReplyTo, Take(&m.out, DisJoinAck{JobID: req.JobID, Host: m.host}))
		r = &req.record
	case *UpdateJobMsg:
		if j, ok := m.jobs[req.JobID]; ok {
			j.hosts = req.Hosts
		}
		r = &req.record
	case *StartTaskMsg:
		if req.Script == nil { // an empty job script finishes immediately
			m.reportDone(req)
			return &req.record
		}
		m.sim.GoArg(sim.ActorName{Kind: "task", Subject: req.JobID, Host: m.host}, m.runTaskFn, req)
		return nil
	case *TaskDoneMsg:
		m.taskDone(req)
		r = &req.record
	case *DynAddMsg:
		// mom.dynadd: the serial DYNJOINs and the host-set update.
		op := m.newOp(req.JobID, req)
		if trc := m.sim.Tracer(); trc != nil {
			op.sp = trc.Start(m.ep.Name(), "mom.dynadd", "job", req.JobID, "req", strconv.Itoa(req.ReqID))
		}
		op.sp.Link(req.Cause) // server's dynalloc span
		m.advance(op)
		return nil
	case *DynRemoveMsg:
		m.advance(m.newOp(req.JobID, req))
		return nil
	case *ReleaseJobMsg:
		m.leave(req.JobID)
		r = &req.record
	case *AbortJobMsg:
		// Not acted on: a deleted job's tasks run to their end.
		r = &req.record
	case *NodeLostMsg: // to the mother superior
		if j, ok := m.jobs[req.JobID]; ok {
			m.setHosts(j, without(j.hosts, req.Host))
		}
		r = &req.record
	}
	return r
}

// leave drops a job from the table, and a sister's record to its list.
func (m *Mom) leave(job string) {
	if j, ok := m.jobs[job]; ok {
		delete(m.jobs, job)
		j.recycle(j)
	}
}

// joinSisters makes this mom the mother superior once StartCost is paid:
// JOIN with the sister mom on every other allocated host. The last ack
// runs the start's tail, started.
func (m *Mom) joinSisters(arg any) {
	j := arg.(*momJob)
	req := j.start.req.(*RunJobMsg)
	hosts := req.Hosts
	if len(req.AccHosts) > 0 {
		hosts = appendHosts(nil, req.Hosts, req.AccHosts, nil)
	}
	m.setHosts(j, hosts)
	j.ms, j.tasksRun, j.start.mj = m.resolve(m.host), len(req.Hosts), j
	m.jobs[req.JobID] = j
	for i, h := range j.hosts {
		if h != m.host {
			m.sendTo(&j.peers[i], Take(&m.out, JoinJobMsg{JobID: req.JobID, MS: m.host, Hosts: j.hosts, ReplyTo: m.ep.Name()}), 0)
			j.start.acks++
		}
	}
	if j.start.acks > 0 {
		m.waits = append(m.waits, &j.start)
	} else {
		m.advance(&j.start)
	}
}

// advance moves op on once it awaits no ack: a dynamic op asks its next
// host, and an op with nobody left to ask runs its tail and is done.
func (m *Mom) advance(op *momOp) {
	var hosts []string
	var ask any
	switch req := op.req.(type) {
	case *RunJobMsg:
		m.started(op.mj, req, op.sp)
		req.recycle(req)
		*op = momOp{} // the job pins no finished start
		return
	case *DynAddMsg:
		if hosts = req.Hosts; op.i < len(hosts) {
			ask = Take(&m.out, DynJoinJobMsg{JobID: req.JobID, ReplyTo: m.ep.Name()})
		}
	case *DynRemoveMsg:
		if hosts = req.Hosts; op.i < len(hosts) {
			ask = Take(&m.out, DisJoinJobMsg{JobID: req.JobID, ReplyTo: m.ep.Name()})
		}
	}
	if ask != nil {
		op.host, op.acks, op.i = hosts[op.i], 1, op.i+1
		to := m.resolve(op.host)
		m.sendTo(&to, ask, 0)
		m.waits = append(m.waits, op)
		return
	}
	m.dynDone(op, hosts)
	Recycle(op.req)
	*op = momOp{next: m.free}
	m.free = op
}

// newOp takes a dynamic op for job's req off the free list.
func (m *Mom) newOp(job string, req any) *momOp {
	op := m.free
	if op == nil {
		op = new(momOp)
	}
	m.free, op.next = op.next, nil
	op.job, op.req = job, req
	return op
}

// started is a job start's tail, once every sister has joined: start the
// accelerator daemons, then the job script on each compute node, and
// report the job started.
func (m *Mom) started(j *momJob, req *RunJobMsg, sp *trace.Span) {
	// The closures below capture these two, not req and sp.
	jobID, cause := req.JobID, sp.ID()
	// Invoke the accelerator daemons for each compute node's static
	// set. The launch is asynchronous: AC_Init in the application
	// waits for readiness, which is the dominant share of Figure 7(a).
	if m.StartDaemons != nil {
		for i, cn := range req.Hosts {
			if acs := accOf(req.AccHosts, i); len(acs) > 0 {
				m.sim.GoNamed(sim.ActorName{Kind: "daemon-start", Subject: jobID, Host: cn}, func() {
					m.StartDaemons(jobID, cn, acs, cause)
				})
			}
		}
	}

	// Start the user application on every compute node: the job's
	// first hosts, whose moms lead j.peers.
	for rank, cn := range req.Hosts {
		env := &JobEnv{
			JobID:    req.JobID,
			Rank:     rank,
			Host:     cn,
			Hosts:    req.Hosts,
			AccHosts: accOf(req.AccHosts, rank),
			ServerEP: ServerEndpoint,
			MSHost:   m.host,
		}
		m.sendTo(&j.peers[rank], Take(&m.out, StartTaskMsg{JobID: jobID, Env: env, Script: req.Spec.Script, Cause: cause}), cause)
	}
	m.sendTo(&m.server, Take(&m.out, JobStartedMsg{JobID: req.JobID}), 0)
	sp.End()
}

// runTask is a task actor (GoArg with the *StartTaskMsg): the job script
// of one compute node, between the mom's prologue and epilogue.
func (m *Mom) runTask(arg any) {
	req := arg.(*StartTaskMsg)
	env := req.Env
	env.Cluster = m.Cluster
	var sp *trace.Span
	if trc := m.sim.Tracer(); trc != nil {
		sp = trc.Start(m.ep.Name(), "job.run", "job", req.JobID)
	}
	sp.Link(req.Cause) // mother superior's mom.start span
	env.TaskSpan = sp.ID()
	defer sp.End()
	if m.Prologue != nil {
		m.Prologue(env)
	}
	req.Script(env)
	if m.Epilogue != nil {
		m.Epilogue(env)
	}
	m.reportDone(req)
	req.recycle(req)
}

// reportDone reports a task done to the mother superior: the job's, or
// the one the task names when a release took the job first.
func (m *Mom) reportDone(req *StartTaskMsg) {
	var ms netsim.Addr
	if j, ok := m.jobs[req.JobID]; ok {
		ms = j.ms
	} else {
		ms = m.resolve(req.Env.MSHost)
	}
	m.sendTo(&ms, Take(&m.out, TaskDoneMsg{JobID: req.JobID, Host: m.host}), 0)
}

// taskDone tracks completion at the mother superior; when the last
// compute node task exits, the job is reported done to the server.
func (m *Mom) taskDone(req *TaskDoneMsg) {
	if j, ok := m.jobs[req.JobID]; ok && j.tasksRun > 0 {
		if j.tasksRun--; j.tasksRun == 0 {
			m.sendTo(&m.server, Take(&m.out, JobDoneMsg{JobID: req.JobID}), 0)
		}
	}
}

// dynDone is a dynamic op's tail, once every host has answered: the
// moms that stay learn the job's new host set, and the server of an
// addition gets its ack.
func (m *Mom) dynDone(op *momOp, hosts []string) {
	add, isAdd := op.req.(*DynAddMsg)
	if j, ok := m.jobs[op.job]; ok {
		if isAdd {
			m.setHosts(j, append(slices.Clip(j.hosts), hosts...)) // a new list: the old one has other holders
		} else {
			m.setHosts(j, without(j.hosts, hosts...))
		}
		// Update the existing moms' databases (asynchronous).
		for i, h := range j.hosts {
			if h != m.host && !slices.Contains(hosts, h) {
				m.sendTo(&j.peers[i], Take(&m.out, UpdateJobMsg{JobID: op.job, Hosts: j.hosts}), 0)
			}
		}
	}
	if isAdd {
		reply := m.net.Resolve(add.ReplyTo)
		m.sendTo(&reply, Take(&m.out, DynAddAck{JobID: op.job, ReqID: add.ReqID, Cause: op.sp.ID()}), op.sp.ID())
		op.sp.End()
	}
}

// without returns hs less the hosts in remove: hs itself when it names
// none of them, a new list otherwise. A host list is never written once
// built (DESIGN.md §10), so whoever else holds hs keeps what it had.
func without(hs []string, remove ...string) []string {
	first := slices.IndexFunc(hs, func(h string) bool { return slices.Contains(remove, h) })
	if first < 0 {
		return hs
	}
	out := append(make([]string, 0, len(hs)-1), hs[:first]...)
	for _, h := range hs[first+1:] {
		if !slices.Contains(remove, h) {
			out = append(out, h)
		}
	}
	return out
}
