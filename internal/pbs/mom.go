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
func MomEndpoint(host string) string { return "pbs/mom@" + host }

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
	sim    *sim.Simulation
	host   string
	ep     *netsim.Endpoint
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

	// Only the handler (on the controller) and the actors it spawns touch
	// what follows, one at a time and never from outside: no lock.
	station station // serves the non-acknowledgement messages (set by Start)
	jobs    map[string]*momJob
	// peers holds the fabric name of every mom this one has addressed,
	// so a message to a sister costs a lookup, not a string. Nil until
	// the first: an accelerator's mom only ever answers.
	peers map[string]string
}

type momJob struct {
	id string
	ms string
	// hosts is the current full host set of the job. The list is shared
	// (with the server's command, the sisters, the running scripts) and
	// never written: a change of the set installs a new list.
	hosts    []string
	isMS     bool
	tasksRun int  // compute node tasks still running (MS only)
	released bool // job ended; tasks being killed
	aborted  bool
}

// NewMom creates the mom daemon for a host; call Start to install its
// handler.
func NewMom(net *netsim.Network, host string, params MomParams) *Mom {
	return &Mom{
		sim:    net.Sim(),
		host:   host,
		ep:     net.Endpoint(MomEndpoint(host)),
		params: params,
		jobs:   make(map[string]*momJob),
	}
}

// Host returns the host this mom manages.
func (m *Mom) Host() string { return m.host }

// Start installs the mom's endpoint handler, a station of the model in
// station.go (plus its heartbeat sender when enabled).
func (m *Mom) Start() {
	m.startHeartbeats()
	m.station = station{sim: m.sim, batch: 1, cost: m.cost, serve: m.handle}
	m.ep.SetHandler(m.receive)
}

// receive is the mom endpoint's handler. Acknowledgements are declined:
// they queue for the mother-superior actors blocked in RecvMatch.
func (m *Mom) receive(msg *netsim.Message) bool {
	switch msg.Payload.(type) {
	case JoinAck, DynJoinAck, DisJoinAck:
		return false
	}
	m.station.offer(msg)
	return true
}

// cost is the mom's service time for a message: a JOIN and a DYNJOIN
// cost their processing time, the rest is handled on arrival.
func (m *Mom) cost(msg *netsim.Message) time.Duration {
	switch msg.Payload.(type) {
	case JoinJobMsg:
		return m.params.JoinCost
	case DynJoinJobMsg:
		return m.params.DynJoinCost
	}
	return 0
}

// peer is MomEndpoint through the mom's table of known peers.
func (m *Mom) peer(host string) string {
	ep, ok := m.peers[host]
	if !ok {
		if m.peers == nil {
			m.peers = make(map[string]string)
		}
		ep = MomEndpoint(host)
		m.peers[host] = ep
	}
	return ep
}

func (m *Mom) send(to string, payload any) {
	_ = m.ep.Send(to, "pbs", payload, 0)
}

// sendCause is send carrying the trace-span id that produced the
// message, for the fabric's delivery-span causal link.
func (m *Mom) sendCause(to string, payload any, cause uint64) {
	_ = m.ep.SendCause(to, "pbs", payload, 0, cause)
}

// handle serves one message once its cost is paid. It runs on the
// controller and must not block: what blocks — a mother superior
// waiting on its sisters' acknowledgements — runs as its own actor,
// which takes the payload and never the envelope.
func (m *Mom) handle(msg *netsim.Message) {
	p := msg.Payload // what a spawned actor captures: req would move to the heap
	switch req := msg.Payload.(type) {
	case RunJobMsg:
		m.sim.GoNamed(sim.ActorName{Kind: "ms", Subject: req.JobID, Host: m.host}, func() { m.runJob(p.(RunJobMsg)) })
	case JoinJobMsg:
		m.jobs[req.JobID] = &momJob{id: req.JobID, ms: req.MS, hosts: req.Hosts}
		m.send(req.ReplyTo, JoinAck{JobID: req.JobID, Host: m.host})
	case DynJoinJobMsg:
		m.jobs[req.JobID] = &momJob{id: req.JobID, ms: req.MS}
		m.send(req.ReplyTo, DynJoinAck{JobID: req.JobID, Host: m.host})
	case DisJoinJobMsg:
		// Kill remaining tasks (accelerator daemon remains) and leave
		// the job entirely.
		delete(m.jobs, req.JobID)
		m.send(req.ReplyTo, DisJoinAck{JobID: req.JobID, Host: m.host})
	case UpdateJobMsg:
		if j, ok := m.jobs[req.JobID]; ok {
			j.hosts = req.Hosts
		}
	case StartTaskMsg:
		m.startTask(req)
	case TaskDoneMsg:
		m.taskDone(req)
	case DynAddMsg:
		m.sim.GoNamed(sim.ActorName{Kind: "dynadd", Subject: req.JobID, Host: m.host}, func() { m.dynAdd(p.(DynAddMsg)) })
	case DynRemoveMsg:
		m.sim.GoNamed(sim.ActorName{Kind: "dynremove", Subject: req.JobID, Host: m.host}, func() { m.dynRemove(p.(DynRemoveMsg)) })
	case ReleaseJobMsg:
		if j, ok := m.jobs[req.JobID]; ok {
			j.released = true
			delete(m.jobs, req.JobID)
		}
	case AbortJobMsg:
		if j, ok := m.jobs[req.JobID]; ok {
			j.aborted = true
		}
	case NodeLostMsg:
		if j, ok := m.jobs[req.JobID]; ok {
			j.hosts = without(j.hosts, req.Host)
		}
	}
}

// runJob makes this mom the mother superior: JOIN with the sister
// moms on every allocated host, start the accelerator daemons, then
// start the job script on each compute node (paper Figure 5).
func (m *Mom) runJob(req RunJobMsg) {
	// mom.start covers the full mother-superior startup: JOIN fan-out,
	// daemon kick-off, and task dispatch (paper Figure 5). The nil
	// guard keeps the untraced path free of the track-name allocation.
	var sp *trace.Span
	if trc := m.sim.Tracer(); trc != nil {
		sp = trc.Start(m.ep.Name(), "mom.start", "job", req.JobID)
	}
	sp.Link(req.Cause) // server's alloc span
	defer sp.End()
	// The closures below capture these two, not req and sp, which would
	// move to the heap for it.
	jobID, cause := req.JobID, sp.ID()
	m.sim.Sleep(m.params.StartCost)
	allHosts := req.Hosts
	if len(req.AccHosts) > 0 {
		allHosts = appendHosts(nil, req.Hosts, req.AccHosts, nil)
	}
	m.jobs[req.JobID] = &momJob{id: req.JobID, ms: m.host, hosts: allHosts, isMS: true, tasksRun: len(req.Hosts)}

	// JOIN_JOB with every other mom of the job.
	pending := 0
	for _, h := range allHosts {
		if h == m.host {
			continue
		}
		m.send(m.peer(h), JoinJobMsg{JobID: req.JobID, MS: m.host, Hosts: allHosts, ReplyTo: m.ep.Name()})
		pending++
	}
	for i := 0; i < pending; i++ {
		ack, err := m.ep.RecvMatch(func(msg *netsim.Message) bool {
			ack, ok := msg.Payload.(JoinAck)
			return ok && ack.JobID == jobID
		})
		ack.Release()
		if err != nil {
			return
		}
	}

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

	// Start the user application on every compute node.
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
		m.sendCause(m.peer(cn), StartTaskMsg{JobID: jobID, Env: env, Script: req.Spec.Script, Cause: cause}, cause)
	}
	m.send(ServerEndpoint, JobStartedMsg{JobID: req.JobID})
}

// startTask runs the job script for one compute node as a fresh
// actor.
func (m *Mom) startTask(req StartTaskMsg) {
	env := req.Env
	env.Cluster = m.Cluster
	ms := env.MSHost
	if req.Script == nil {
		// An empty job script finishes immediately.
		m.send(m.peer(ms), TaskDoneMsg{JobID: req.JobID, Host: m.host})
		return
	}
	m.sim.GoNamed(sim.ActorName{Kind: "task", Subject: req.JobID, Host: m.host}, func() {
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
		m.send(m.peer(ms), TaskDoneMsg{JobID: req.JobID, Host: m.host})
	})
}

// taskDone tracks completion at the mother superior; when the last
// compute node task exits, the job is reported done to the server.
func (m *Mom) taskDone(req TaskDoneMsg) {
	if j, ok := m.jobs[req.JobID]; ok && j.isMS {
		if j.tasksRun--; j.tasksRun == 0 {
			m.send(ServerEndpoint, JobDoneMsg{JobID: req.JobID})
		}
	}
}

// dynAdd incorporates dynamically allocated accelerators: DYNJOIN
// each new mom (serially, as the paper's mother superior does), tell
// the existing moms about the enlarged host set, and ack the server.
func (m *Mom) dynAdd(req DynAddMsg) {
	// mom.dynadd covers the serial DYNJOIN fan-out plus the host-set
	// update broadcast — the mother-superior share of a pbs_dynget.
	var sp *trace.Span
	if trc := m.sim.Tracer(); trc != nil {
		sp = trc.Start(m.ep.Name(), "mom.dynadd", "job", req.JobID, "req", strconv.Itoa(req.ReqID))
	}
	sp.Link(req.Cause) // server's dynalloc span
	defer sp.End()
	for _, h := range req.Hosts {
		m.send(m.peer(h), DynJoinJobMsg{JobID: req.JobID, MS: m.host, ReplyTo: m.ep.Name()})
		ack, err := m.ep.RecvMatch(func(msg *netsim.Message) bool {
			ack, ok := msg.Payload.(DynJoinAck)
			return ok && ack.JobID == req.JobID && ack.Host == h
		})
		ack.Release()
		if err != nil {
			return
		}
	}
	var others []string
	if j, ok := m.jobs[req.JobID]; ok {
		j.hosts = append(slices.Clip(j.hosts), req.Hosts...) // a new list: the old one has other holders
		others = j.hosts
	}
	// Update the existing moms' databases (asynchronous).
	for _, h := range others {
		if h == m.host || slices.Contains(req.Hosts, h) {
			continue
		}
		m.send(m.peer(h), UpdateJobMsg{JobID: req.JobID, Hosts: others})
	}
	m.sendCause(req.ReplyTo, DynAddAck{JobID: req.JobID, ReqID: req.ReqID, Cause: sp.ID()}, sp.ID())
}

// dynRemove drives DISJOIN_JOB for a released dynamic set and updates
// the remaining moms.
func (m *Mom) dynRemove(req DynRemoveMsg) {
	for _, h := range req.Hosts {
		m.send(m.peer(h), DisJoinJobMsg{JobID: req.JobID, ReplyTo: m.ep.Name()})
		ack, err := m.ep.RecvMatch(func(msg *netsim.Message) bool {
			ack, ok := msg.Payload.(DisJoinAck)
			return ok && ack.JobID == req.JobID && ack.Host == h
		})
		ack.Release()
		if err != nil {
			return
		}
	}
	var others []string
	if j, ok := m.jobs[req.JobID]; ok {
		j.hosts = without(j.hosts, req.Hosts...)
		others = j.hosts
	}
	for _, h := range others {
		if h == m.host {
			continue
		}
		m.send(m.peer(h), UpdateJobMsg{JobID: req.JobID, Hosts: others})
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
