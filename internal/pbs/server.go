package pbs

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ServerEndpoint is the fabric name of the pbs_server daemon.
const ServerEndpoint = "pbs/server"

// ErrUnknownJob is returned for operations on nonexistent jobs.
var ErrUnknownJob = errors.New("pbs: unknown job")

// ServerParams is the server's cost model.
type ServerParams struct {
	// Processing is the handling cost the single-threaded server pays
	// per incoming request; it serializes everything the server does,
	// which is what produces the staircase of Figure 9.
	Processing time.Duration
	// DeadAfter enables the failure detector: a node silent for
	// longer than this is declared down (zero disables detection).
	// Moms must send heartbeats at a period well below DeadAfter.
	DeadAfter time.Duration
	// Shards shapes the server's station model (station.go); NewServer
	// derives all of it. 0 or 1 is the faithful 2013 server: one station
	// serving a request at a time at Processing each, so everything it
	// does serializes, dynamic requests end to end included. Above 1,
	// requests are routed by job to Shards stations, each serving what
	// has queued as one batch at Processing, and DYNJOIN pipelines
	// (dynWindow). Either way the server is a delivery handler: no
	// goroutine, Recv or gate.
	Shards int
	// RetainCompleted bounds how many terminal job records (completed,
	// deleted, failed) the server keeps. 0 retains everything — the
	// original batch behavior, where qstat can inspect any job ever
	// run. Positive values enable the online-service retention window:
	// older terminal records are purged at scheduler-cycle boundaries
	// and recycled through a pool, keeping a resident instance at
	// steady-state memory (see retention.go).
	RetainCompleted int
	// AcctRing bounds the in-memory accounting log to roughly the most
	// recent records (0 = unbounded, the original behavior).
	AcctRing int
}

// Server is the pbs_server daemon: job queues, the node database, and
// the dynamic-request machinery added for the DAC environment. Its
// handlers run in delivery callbacks, one at a time, so the simulation's
// slot guards its state; the Locked suffix marks the helpers that only a
// handler calls.
type Server struct {
	net    *netsim.Network
	sim    *sim.Simulation
	ep     *netsim.Endpoint
	params ServerParams
	inst   serverInstruments
	// aud is the flight recorder (nil when auditing is off — every
	// call on it is a nil-safe no-op) and books what its invariant
	// engine carries between cycle boundaries. See audit.go.
	aud   *audit.Recorder
	books auditBooks

	// stations and shardFor's cursor rr: only the controller touches them.
	stations []station
	rr       int

	// sched is the scheduler kicks go to (no name: none).
	sched      netsim.Addr
	nextJob    int
	nextClient int
	nextDyn    int
	// index is the job database; see index.go for the compaction
	// invariants.
	index jobIndex
	// table is the node database in AddNode order, the host table every
	// other path goes through; nodes finds the same records by name, for
	// the names that enter in requests and scheduler commands.
	table []*serverNode
	nodes map[string]*serverNode
	// nodeBlock holds the records ReserveNodes cut for nodes to come.
	nodeBlock []serverNode
	// The scheduler's view is incremental (see handleSchedInfo): gen
	// counts the states of the view a scheduler was handed, changed and
	// jobChanged list the nodes (table indices) and jobs whose view moved
	// since the last answer, viewEP is the scheduler that answer went to —
	// the only one a delta can be served to — and phases counts the jobs.
	gen        uint64
	changed    []int
	jobChanged []*serverJob
	viewEP     string
	phases     [3]int
	// dynQ holds the unanswered dynamic requests in arrival order; the
	// first dynWindow of them are in service (scheduling or forwarding),
	// the rest dynqueued. 1 is the paper's server, which works on one
	// dynamic request at a time, so a DYNJOIN in flight blocks every
	// other — the serialization behind Figure 8's latency cliff; the
	// sharded server's window is unbounded and its joins overlap.
	dynQ      []*DynRecord
	dynWindow int
	dynReply  map[int]dynReplyTo // server dyn id -> client reply route
	waiters   map[string][]waiter
	acct      [][]AccountingRecord // blocks, oldest first (acctlog.go)
	errs      []string

	// Retention state (see retention.go); all zero when
	// RetainCompleted is 0.
	doneQ    []int // terminal jobs' sequence numbers, oldest first from doneHead on
	doneHead int
	purged   uint64       // cumulative purge count
	reused   uint64       // cumulative pool-reuse count
	jobPool  []*serverJob // scrubbed records awaiting reuse

	out     Outbox                              // what the server sends
	answers free[SchedInfoResp, *SchedInfoResp] // scheduler answers, buffers kept (see Release)
}

// dynReplyTo remembers where and with which client-side request id a
// dynamic request must be answered. Client request ids are only
// unique per client, so the server keys its queue by its own ids.
type dynReplyTo struct {
	ep        string
	clientReq int
}

type serverJob struct {
	// seq is the sequence number info.ID starts with: the record's
	// place in submission order.
	seq  int
	info JobInfo
	// nodes are the nodes the host lists name, resolved once, in
	// appendHosts order: its mother superior's first. A node leaves with
	// its name (a freed dynamic set, a lost accelerator), and the job
	// keeps them after it ends. nodeBuf holds a narrow job's.
	nodes   []*serverNode
	nodeBuf [2]*serverNode
	// gen and phase are the job's view as touchJobLocked last stamped it.
	gen   uint64
	phase JobPhase
}

// live reports whether the job still holds, or waits for, resources.
func (j *serverJob) live() bool {
	return j.info.State == JobRunning || j.info.State == JobQueued
}

type serverNode struct {
	info NodeInfo
	mom  netsim.Addr // the node's mom, resolved at registration
	// used holds the jobs on the node in job-ID order, NodeInfo.Jobs's.
	used []nodeUse
	idx  int // position in Server.table
	// gen is the node-table generation that first carries the node's
	// current NodeInfo (see touchLocked).
	gen      uint64
	lastSeen time.Duration // latest heartbeat (failure detector)
	// audClass is the conservation class the invariant engine last
	// filed an accelerator under (audit.go).
	audClass acClass

	// Accounting (see accounting.go).
	busyCoreSeconds float64
	lastChange      time.Duration
}

// nodeUse is one job's hold on a node: cores of a compute node, 1 of an
// accelerator.
type nodeUse struct {
	job string
	n   int
}

// holds returns job's hold on n, and where it is (or would go) in n.used.
func (n *serverNode) holds(job string) (c, at int, ok bool) {
	at, ok = slices.BinarySearchFunc(n.used, job, func(u nodeUse, id string) int { return strings.Compare(u.job, id) })
	if ok {
		c = n.used[at].n
	}
	return c, at, ok
}

// hold sets job's hold on n to c.
func (n *serverNode) hold(job string, c int) {
	if _, at, ok := n.holds(job); ok {
		n.used[at].n = c
	} else {
		n.used = slices.Insert(n.used, at, nodeUse{job: job, n: c})
	}
}

// drop takes job's hold off n and returns it.
func (n *serverNode) drop(job string) (c int, ok bool) {
	c, at, ok := n.holds(job)
	if ok {
		n.used = slices.Delete(n.used, at, at+1)
	}
	return c, ok
}

type waiter struct {
	reqID   int
	replyTo string
}

// serverInstruments are the server's live metrics, resolved once at
// construction (nil handles when telemetry is off — every method is a
// nil-safe no-op).
type serverInstruments struct {
	rpcService  *telemetry.Histogram // queue wait + processing per RPC
	dynLatency  *telemetry.Histogram // dynamic-request arrival -> reply
	queueDepth  *telemetry.Gauge     // schedulable queued jobs, per cycle
	dynPending  *telemetry.Gauge     // dynamic requests awaiting the scheduler
	submits     *telemetry.Counter
	jobsDone    *telemetry.Counter
	dynGranted  *telemetry.Counter
	dynRejected *telemetry.Counter
	// Sharded-path instruments (idle in the faithful configuration).
	shardBusy  *telemetry.Occupancy // virtual time shard workers spend handling batches
	rpcBatches *telemetry.Counter   // batches drained across all shards
}

// NewServer creates the server daemon; call AddNode for each cluster
// node and Start to spawn its actor.
func NewServer(net *netsim.Network, params ServerParams) *Server {
	reg := net.Sim().Telemetry()
	s := &Server{
		inst: serverInstruments{
			rpcService:  reg.Histogram("pbs.rpc_service"),
			dynLatency:  reg.Histogram("pbs.dyn_latency"),
			queueDepth:  reg.Gauge("pbs.queue_depth"),
			dynPending:  reg.Gauge("pbs.dyn_pending"),
			submits:     reg.Counter("pbs.submits"),
			jobsDone:    reg.Counter("pbs.jobs_done"),
			dynGranted:  reg.Counter("pbs.dyn_granted"),
			dynRejected: reg.Counter("pbs.dyn_rejected"),
			shardBusy:   reg.Occupancy("pbs.shard_occupancy"),
			rpcBatches:  reg.Counter("pbs.rpc_batches"),
		},
		net:       net,
		sim:       net.Sim(),
		ep:        net.Endpoint(ServerEndpoint),
		params:    params,
		nodes:     make(map[string]*serverNode),
		dynWindow: 1,
		dynReply:  make(map[int]dynReplyTo),
		waiters:   make(map[string][]waiter),
	}
	// The station model (station.go): the paper's serial server, or
	// Shards stations of unbounded batches and an unbounded dyn window.
	st := station{sim: s.sim, batch: 1, daemon: s}
	if params.Shards > 1 {
		st.batch, s.dynWindow = math.MaxInt, math.MaxInt
		st.batches, st.busy = s.inst.rpcBatches, s.inst.shardBusy
	}
	s.stations = make([]station, max(params.Shards, 1))
	for i := range s.stations {
		s.stations[i] = st
	}
	s.answers.reset = func(r *SchedInfoResp) {
		*r = SchedInfoResp{record: r.record, Dyn: r.Dyn[:0], Nodes: r.Nodes[:0], Jobs: r.Jobs[:0]}
	}
	s.registerAudit()
	return s
}

// AddNode registers a node in the server's node database.
func (s *Server) AddNode(name string, typ NodeType, cores int) {
	var n *serverNode
	if len(s.nodeBlock) > 0 {
		n, s.nodeBlock = &s.nodeBlock[0], s.nodeBlock[1:]
	} else {
		n = new(serverNode)
	}
	n.info = NodeInfo{Name: name, Type: typ, Cores: cores}
	n.lastSeen = s.sim.Now()
	s.addNodeLocked(n)
}

// ReserveNodes sizes the node database for n more nodes and cuts their
// records from one block, so that registering a cluster neither
// rehashes the name map, nor regrows the table, nor allocates a record
// a node.
func (s *Server) ReserveNodes(n int) {
	nodes := make(map[string]*serverNode, len(s.nodes)+n)
	maps.Copy(nodes, s.nodes)
	s.nodes = nodes
	s.table = slices.Grow(s.table, n)
	s.nodeBlock = make([]serverNode, n)
}

// addNodeLocked appends a node to the dense table and the name map,
// and resolves its mom (sharing the name of a mom already built).
func (s *Server) addNodeLocked(n *serverNode) {
	var buf [64]byte
	n.mom = s.net.ResolveBytes(append(append(buf[:0], momPrefix...), n.info.Name...))
	n.idx = len(s.table)
	s.table = append(s.table, n)
	s.nodes[n.info.Name] = n
	s.touchLocked(n)
}

// touchLocked marks the node's NodeInfo as changed since the last
// scheduler answer. Every site that writes n.info calls it; the
// generation stamp keeps a node changed twice between two answers
// from being listed twice.
func (s *Server) touchLocked(n *serverNode) {
	if n.gen <= s.gen {
		n.gen = s.gen + 1
		s.changed = append(s.changed, n.idx)
	}
}

// touchJobLocked is touchLocked for a job's view, and keeps the phase
// counts. Every write of a field the view reads calls it: advance,
// qalter, qhold/qrls, the start report, Restore.
func (s *Server) touchJobLocked(j *serverJob) {
	s.phases[j.phase]--
	j.phase = PhaseGone
	switch in := &j.info; {
	case in.State == JobRunning:
		j.phase = PhaseRunning
	case in.State == JobQueued && !in.Held:
		j.phase = PhaseQueued
	}
	s.phases[j.phase]++
	if j.gen <= s.gen {
		j.gen = s.gen + 1
		s.jobChanged = append(s.jobChanged, j)
	}
}

// view is the job as a scheduler's answer carries it.
func (j *serverJob) view() SchedJobView {
	in := &j.info
	return SchedJobView{ID: in.ID, Seq: j.seq, Phase: j.phase, SubmittedAt: in.SubmittedAt, StartedAt: in.StartedAt, Spec: in.Spec}
}

// SetScheduler installs the scheduler's endpoint for kick
// notifications.
func (s *Server) SetScheduler(ep string) {
	s.sched = s.net.Resolve(ep)
}

// Errors returns the newest protocol anomalies the server observed, at
// most errsKept of them, oldest first (for tests).
func (s *Server) Errors() []string {
	return append([]string(nil), s.errs[max(len(s.errs)-errsKept, 0):]...)
}

// Start installs the server's endpoint handler, which takes over what
// queued there (a restarted server's backlog), and spawns the failure
// detector when enabled.
func (s *Server) Start() {
	s.startFailureDetector()
	s.ep.SetHandler(serverReceive, s)
}

// serverReceive is the server endpoint's handler, arg the server: it
// routes each request to its station. A stopMsg takes the handler off
// the endpoint: the stations serve what they hold, and what arrives
// later queues for a restarted server.
func serverReceive(arg any, m *netsim.Message) {
	s := arg.(*Server)
	if _, stop := m.Payload.(stopMsg); stop {
		s.ep.SetHandler(nil, nil)
		return
	}
	s.stations[s.shardFor(m.Payload, &s.rr)].offer(m)
}

// send answers a request at the name it gave.
func (s *Server) send(to string, payload any) {
	if err := s.ep.Send(to, "pbs", payload, 0); err != nil {
		Recycle(payload)
		s.logErr("send to %s: %v", to, err)
	}
}

// sendTo sends to a daemon the server has resolved, with the trace-span
// id that produced the message, so the fabric's delivery span links
// back to the causing work.
func (s *Server) sendTo(to *netsim.Addr, payload any, cause uint64) {
	if err := s.ep.SendTo(to, "pbs", payload, 0, cause); err != nil {
		Recycle(payload)
		s.logErr("send to %s: %v", to.Name(), err)
	}
}

// The SchedKick of each fixed reason the server wakes the scheduler
// with, on no free list: such a kick allocates nothing. Read-only.
var (
	kickSubmit    any = &SchedKick{Reason: "submit"}
	kickQalter    any = &SchedKick{Reason: "qalter"}
	kickQrls      any = &SchedKick{Reason: "qrls"}
	kickDelete    any = &SchedKick{Reason: "delete"}
	kickDynqueued any = &SchedKick{Reason: "dynqueued"}
	kickDynfree   any = &SchedKick{Reason: "dynfree"}
	kickJobdone   any = &SchedKick{Reason: "jobdone"}
	kickRestore   any = &SchedKick{Reason: "restore"}
)

// kickScheduler sends the scheduler a kick, if there are both.
func (s *Server) kickScheduler(kick any) {
	if kick != nil && s.sched.Name() != "" {
		s.sendTo(&s.sched, kick, 0)
	}
}

// errsKept is how many of the newest protocol anomalies Errors returns.
const errsKept = 256

// logErr records a protocol anomaly and returns its message. The log
// keeps the newest errsKept, compacting at 2x, so a misbehaving client
// cannot grow it without bound.
func (s *Server) logErr(format string, args ...any) string {
	msg := fmt.Sprintf(format, args...)
	s.errs = append(s.errs, msg)
	if len(s.errs) > 2*errsKept {
		s.errs = append(s.errs[:0], s.errs[len(s.errs)-errsKept:]...)
	}
	return msg
}

// cost is a batch's service time: Processing, whatever it holds.
func (s *Server) cost(*netsim.Message) time.Duration { return s.params.Processing }

// serve serves one request and records its service time as the
// requester experiences the server: head-of-line wait (implicit in
// Delivered -> now) plus processing and handling. It keeps no request,
// and hands each back through the record its case holds.
func (s *Server) serve(m *netsim.Message) (r *record) {
	switch req := m.Payload.(type) {
	case *SubmitReq:
		s.handleSubmit(req)
		r = &req.record
	case *StatReq:
		s.handleStat(req)
		r = &req.record
	case *NodesReq:
		s.send(req.ReplyTo, Take(&s.out, NodesResp{ReqID: req.ReqID, Nodes: s.nodeView()}))
		r = &req.record
	case *AlterReq:
		s.handleAlter(req)
		r = &req.record
	case *HoldReq:
		s.handleHold(req)
		r = &req.record
	case *ListReq:
		s.handleList(req)
		r = &req.record
	case *DeleteReq:
		s.handleDelete(req)
		r = &req.record
	case *WaitReq:
		s.handleWait(req)
		r = &req.record
	case *DynGetReq:
		s.handleDynGet(req)
		r = &req.record
	case *DynFreeReq:
		s.handleDynFree(req)
		r = &req.record
	case *SchedInfoReq:
		s.handleSchedInfo(req)
		r = &req.record
	case *AllocCmd:
		s.handleAlloc(req)
		r = &req.record
	case *DynAllocCmd:
		s.handleDynAlloc(req)
		r = &req.record
	case *JobStartedMsg:
		if j := s.index.find(req.JobID); j != nil {
			j.info.StartedAt = s.sim.Now()
			s.touchJobLocked(j)
			s.account(AcctStarted, req.JobID, nil)
		}
		r = &req.record
	case *JobDoneMsg:
		s.handleJobDone(req.JobID)
		r = &req.record
	case *DynAddAck:
		s.handleDynAddAck(req)
		r = &req.record
	case *HeartbeatMsg:
		s.heartbeat(req.Host)
		r = &req.record
	default:
		s.logErr("server: unexpected message %T from %s", m.Payload, m.From)
	}
	s.inst.rpcService.Record(s.sim.Now() - m.Delivered)
	return r
}

// ServerTrack is the server's observability track name.
const ServerTrack = "pbs/server"

func (s *Server) handleSubmit(req *SubmitReq) {
	sp := s.sim.Tracer().Start(ServerTrack, "submit", "owner", req.Spec.Owner)
	defer sp.End()
	if req.Spec.Nodes <= 0 || req.Spec.PPN < 0 || req.Spec.ACPN < 0 {
		s.send(req.ReplyTo, Take(&s.out, SubmitResp{ReqID: req.ReqID, Err: "pbs: invalid resource request"}))
		return
	}
	s.nextJob++
	seq := s.nextJob
	var idBuf [32]byte
	id := string(append(strconv.AppendUint(idBuf[:0], uint64(seq), 10), "."+ServerEndpoint...))
	j := s.acquireJobLocked()
	j.seq = seq
	j.info.ID = id
	j.info.Spec = req.Spec
	s.advanceJobLocked(j, JobQueued, int64(seq)) // before the index knows the job: born here
	s.index.log = append(s.index.log, s.logEntry(seq, id, j))
	s.index.records++
	s.index.activate(j)
	sp.Annotate("job", id)
	s.inst.submits.Inc()
	var buf [96]byte
	s.account(AcctQueued, id, appendQueuedDetail(buf[:0], req.Spec))
	s.send(req.ReplyTo, Take(&s.out, SubmitResp{ReqID: req.ReqID, JobID: id}))
	s.kickScheduler(kickSubmit)
}

func (s *Server) handleStat(req *StatReq) {
	j := s.index.find(req.JobID)
	if j == nil {
		s.send(req.ReplyTo, Take(&s.out, StatResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()}))
		return
	}
	s.send(req.ReplyTo, Take(&s.out, StatResp{ReqID: req.ReqID, Info: cloneInfo(j.info)}))
}

// handleAlter applies qalter to a job that has not started yet.
func (s *Server) handleAlter(req *AlterReq) {
	j := s.index.find(req.JobID)
	if j == nil {
		s.send(req.ReplyTo, Take(&s.out, AlterResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()}))
		return
	}
	if j.info.State != JobQueued {
		s.send(req.ReplyTo, Take(&s.out, AlterResp{ReqID: req.ReqID, Err: "pbs: job already started"}))
		return
	}
	if req.Priority != nil {
		j.info.Spec.Priority = *req.Priority
	}
	if req.Walltime > 0 {
		j.info.Spec.Walltime = req.Walltime
	}
	if req.Name != "" {
		j.info.Spec.Name = req.Name
	}
	s.touchJobLocked(j)
	s.send(req.ReplyTo, Take(&s.out, AlterResp{ReqID: req.ReqID}))
	s.kickScheduler(kickQalter)
}

// handleHold applies qhold/qrls to a queued job.
func (s *Server) handleHold(req *HoldReq) {
	j := s.index.find(req.JobID)
	if j == nil {
		s.send(req.ReplyTo, Take(&s.out, HoldResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()}))
		return
	}
	if j.info.State != JobQueued {
		s.send(req.ReplyTo, Take(&s.out, HoldResp{ReqID: req.ReqID, Err: "pbs: job not queued"}))
		return
	}
	j.info.Held = req.Hold
	s.touchJobLocked(j)
	s.send(req.ReplyTo, Take(&s.out, HoldResp{ReqID: req.ReqID}))
	if !req.Hold {
		s.kickScheduler(kickQrls)
	}
}

// handleList returns every job in submission order.
func (s *Server) handleList(req *ListReq) {
	jobs := make([]JobInfo, 0, s.index.records)
	for _, ref := range s.index.log {
		if ref.j != nil {
			jobs = append(jobs, cloneInfo(ref.j.info))
		}
	}
	s.send(req.ReplyTo, Take(&s.out, ListResp{ReqID: req.ReqID, Jobs: jobs}))
}

// handleDelete is qdel. Deleting a job that already ended succeeds and
// changes nothing, but wakes the scheduler like any other qdel.
func (s *Server) handleDelete(req *DeleteReq) {
	resp := Take(&s.out, DeleteResp{ReqID: req.ReqID})
	switch known, ended := s.endJob(req.JobID, &endDeleted, "", req.ReplyTo, resp); {
	case ended:
	case known:
		s.send(req.ReplyTo, resp)
		s.kickScheduler(endDeleted.kick)
	default:
		resp.Err = ErrUnknownJob.Error()
		s.send(req.ReplyTo, resp)
	}
}

func (s *Server) handleWait(req *WaitReq) {
	j := s.index.find(req.JobID)
	if j == nil {
		s.send(req.ReplyTo, Take(&s.out, WaitResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()}))
		return
	}
	if st := j.info.State; st == JobCompleted || st == JobDeleted || st == JobFailed {
		info := cloneInfo(j.info)
		s.send(req.ReplyTo, Take(&s.out, WaitResp{ReqID: req.ReqID, Info: info}))
		return
	}
	s.waiters[req.JobID] = append(s.waiters[req.JobID], waiter{reqID: req.ReqID, replyTo: req.ReplyTo})
}

// handleDynGet enqueues a dynamic request in the special dynqueued
// state; startNextDynLocked takes it into service.
func (s *Server) handleDynGet(req *DynGetReq) {
	var sp *trace.Span
	if trc := s.sim.Tracer(); trc != nil {
		sp = trc.Start(ServerTrack, "dynget",
			"job", req.JobID, "count", strconv.Itoa(req.Count), "kind", req.Kind.String())
	}
	defer sp.End()
	j := s.index.find(req.JobID)
	if j == nil || j.info.State != JobRunning || req.Count <= 0 {
		reason := "pbs: job not running"
		if req.Count <= 0 {
			reason = "pbs: invalid accelerator count"
		}
		s.send(req.ReplyTo, Take(&s.out, DynGetResp{ReqID: req.ReqID, ClientID: -1, Err: reason}))
		return
	}
	ppn := req.PPN
	if req.Kind == KindCompute && ppn <= 0 {
		ppn = 1
	}
	s.nextDyn++
	rec := &DynRecord{
		ReqID:    s.nextDyn,
		JobID:    req.JobID,
		CN:       req.CN,
		Count:    req.Count,
		Kind:     req.Kind,
		PPN:      ppn,
		ClientID: -1,
	}
	s.advanceDynLocked(rec, DynQueued, int64(rec.Count)) // before its reply route exists: born here
	s.dynQ = append(s.dynQ, rec)
	s.dynReply[rec.ReqID] = dynReplyTo{ep: req.ReplyTo, clientReq: req.ReqID}
	sp.Annotate("req", strconv.Itoa(rec.ReqID))
	s.startNextDynLocked()
}

// startNextDynLocked takes every dynqueued request inside the service
// window into scheduling and kicks the scheduler if there was one.
// Requests enter service oldest first and leave the queue when they
// end, so the requests in service are the queue's head.
func (s *Server) startNextDynLocked() {
	kicked := false
	for _, rec := range s.dynQ[:min(len(s.dynQ), s.dynWindow)] {
		if rec.State == DynQueued {
			s.advanceDynLocked(rec, DynScheduling, 0)
			kicked = true
		}
	}
	if kicked {
		s.kickScheduler(kickDynqueued)
	}
}

func (s *Server) handleDynFree(req *DynFreeReq) {
	j := s.index.find(req.JobID)
	if j == nil {
		s.send(req.ReplyTo, Take(&s.out, DynFreeResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()}))
		return
	}
	if _, ok := j.info.DynSets[req.ClientID]; !ok {
		s.send(req.ReplyTo, Take(&s.out, DynFreeResp{ReqID: req.ReqID, Err: "pbs: unknown client-id"}))
		return
	}
	for i := range j.info.DynRecords {
		if j.info.DynRecords[i].ClientID == req.ClientID {
			j.info.DynRecords[i].FreedAt = s.sim.Now()
		}
	}
	hosts := s.releaseDynSetLocked(j, req.ClientID)
	s.aud.Record(audit.KindJob, "pbs", req.JobID, audDynFree, int64(req.ClientID), int64(len(hosts)))

	// Positive reply first; disassociation proceeds while the
	// application continues (paper Section III-D).
	var buf [32]byte
	s.account(AcctDynFree, req.JobID, appendKV(buf[:0], "client=", req.ClientID))
	s.send(req.ReplyTo, Take(&s.out, DynFreeResp{ReqID: req.ReqID}))
	if len(j.info.Hosts) > 0 {
		s.sendTo(&j.nodes[0].mom, Take(&s.out, DynRemoveMsg{JobID: req.JobID, ClientID: req.ClientID, Hosts: hosts}), 0)
	}
	s.kickScheduler(kickDynfree)
}

// releaseDynSetLocked hands one dynamic set of a job back to the pool
// and returns the hosts that were in it.
func (s *Server) releaseDynSetLocked(j *serverJob, clientID int) []string {
	id, hosts := j.info.ID, j.info.DynSets[clientID]
	delete(j.info.DynSets, clientID)
	for _, h := range hosts {
		// Dynamic sets follow the static hosts in j.nodes: search from
		// the tail.
		i := len(j.nodes) - 1
		for i >= 0 && j.nodes[i].info.Name != h {
			i--
		}
		if i >= 0 {
			n := j.nodes[i]
			j.nodes = slices.Delete(j.nodes, i, i+1)
			c, _ := n.drop(id)
			s.aud.Record(audit.KindRelease, "pbs", h, id, int64(c), 1)
			s.refreshLocked(n)
		}
	}
	return hosts
}

// Release returns the snapshot and its buffers to the free list of the
// server that built it (Recycle). The server hands a *SchedInfoResp to
// exactly one scheduler, which owns it (and every slice hanging off it)
// until it calls Release after its cycle; the next handleSchedInfo then
// refills the same buffers in place, so the steady-state cost of an
// answer is copying, not allocating. The scheduler must not touch the
// response — including any slice obtained from it — after releasing.
func (r *SchedInfoResp) Release() {
	if r != nil {
		Recycle(r)
	}
}

// handleSchedInfo answers one scheduler round: the dynamic requests
// awaiting allocation, and the nodes and jobs whose view changed since
// the generation the scheduler holds. A delta can only be served to the
// scheduler the previous answer went to, holding the generation that
// answer carried; anyone else — a scheduler holding nothing, one whose
// last answer was lost, one that outlived a server restart, a second
// scheduler — gets the full view, which is the same answer counted from
// generation zero.
func (s *Server) handleSchedInfo(req *SchedInfoReq) {
	resp := s.answers.get()
	resp.ReqID = req.ReqID
	for _, rec := range s.dynQ {
		if rec.State == DynScheduling {
			resp.Dyn = append(resp.Dyn, SchedDynView{
				ReqID: rec.ReqID, JobID: rec.JobID, Count: rec.Count,
				Kind: rec.Kind, PPN: rec.PPN, ArrivedAt: rec.ArrivedAt,
			})
		}
	}
	resp.Full = req.ReplyTo != s.viewEP || req.Gen != s.gen
	if resp.Full {
		for _, n := range s.table {
			resp.Nodes = appendNodeDelta(resp.Nodes, n)
		}
		for _, e := range s.index.active {
			if e.j.phase != PhaseGone {
				resp.Jobs = append(resp.Jobs, e.j.view())
			}
		}
	} else {
		for _, i := range s.changed {
			resp.Nodes = appendNodeDelta(resp.Nodes, s.table[i])
		}
		for _, j := range s.jobChanged {
			resp.Jobs = append(resp.Jobs, j.view())
		}
	}
	resp.Queued, resp.Running = s.phases[PhaseQueued], s.phases[PhaseRunning]
	// Terminal jobs leave the active list in batches, or for a purge.
	if 2*s.index.dead > len(s.index.active) {
		s.index.compact()
	}
	s.purgeRetiredLocked()
	// Scheduler-cycle boundary: the snapshot the scheduler will act on
	// is complete — run the invariant engine on exactly that state,
	// while s.changed still lists the nodes touched since the last
	// boundary.
	s.auditCycleLocked()
	if len(s.changed) > 0 || len(s.jobChanged) > 0 {
		s.gen++
		s.changed = s.changed[:0]
		s.jobChanged = s.jobChanged[:0]
	}
	resp.Gen = s.gen
	s.viewEP = req.ReplyTo
	s.aud.Record(audit.KindCycle, "pbs", audSchedInfoCyc, "", int64(resp.Queued), int64(resp.Running))
	s.inst.queueDepth.Set(float64(resp.Queued))
	s.inst.dynPending.Set(float64(len(resp.Dyn)))
	s.send(req.ReplyTo, resp)
}

func (s *Server) handleAlloc(cmd *AllocCmd) {
	sp := s.sim.Tracer().Start(ServerTrack, "alloc", "job", cmd.JobID)
	sp.Link(cmd.Cause) // scheduler's place span
	defer sp.End()
	j := s.index.find(cmd.JobID)
	if j == nil || j.info.State != JobQueued || j.info.Held || len(j.info.Hosts) > 0 {
		// A job deleted, failed or held while the scheduler was
		// mid-cycle legitimately races its allocation; drop the
		// command. The len(Hosts) guard validates a command from
		// another daemon: the scheduler's own snapshot always holds its
		// earlier placements (shardFor), so no race of it reaches here.
		// Only a wholly unknown job ID indicates a real bug.
		benign := j != nil
		if !benign {
			s.logErr("AllocCmd for job %s in invalid state", cmd.JobID)
		}
		return
	}
	// Resolve and validate the assignment, then commit it: compute nodes
	// first, then the accelerators in compute-node order.
	var buf [hostBuf]string
	var nbuf [hostBuf]*serverNode
	nodes := nbuf[:0]
	for i, h := range appendHosts(buf[:0], cmd.Hosts, cmd.AccHosts, nil) {
		n, ok := s.nodes[h]
		what := "compute node"
		if i < len(cmd.Hosts) {
			ok = ok && n.info.Type == ComputeNode && n.info.FreeCores() >= j.info.Spec.PPN
		} else {
			what = "accelerator"
			ok = ok && n.info.Type == AcceleratorNode && len(n.used) == 0
		}
		if !ok {
			s.logErr("AllocCmd for job %s: %s %s unavailable", cmd.JobID, what, h)
			return
		}
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		c := 1
		if i < len(cmd.Hosts) {
			c = j.info.Spec.PPN
		}
		n.hold(cmd.JobID, c)
		s.refreshLocked(n)
		s.aud.Record(audit.KindAlloc, "pbs", n.info.Name, cmd.JobID, int64(c), 0)
	}
	j.nodes = append(j.nodeBuf[:0], nodes...)
	j.info.Hosts = cmd.Hosts
	j.info.AccHosts = cmd.AccHosts
	s.advanceJobLocked(j, JobRunning, int64(len(cmd.Hosts)))
	spec := j.info.Spec

	// Select the mother superior (always a compute node, paper
	// Section III-C) and forward the job.
	s.sendTo(&nodes[0].mom,
		Take(&s.out, RunJobMsg{JobID: cmd.JobID, Spec: spec, Hosts: cmd.Hosts, AccHosts: cmd.AccHosts, Cause: sp.ID()}), sp.ID())
}

func (s *Server) handleDynAlloc(cmd *DynAllocCmd) {
	var sp *trace.Span
	if trc := s.sim.Tracer(); trc != nil {
		sp = trc.Start(ServerTrack, "dynalloc", "req", strconv.Itoa(cmd.ReqID))
	}
	sp.Link(cmd.Cause) // scheduler's sched.dyn span
	defer sp.End()
	rec := s.dynInLocked(cmd.ReqID, DynScheduling)
	if rec == nil {
		s.logErr("DynAllocCmd for unknown request %d", cmd.ReqID)
		return
	}
	sp.Annotate("job", rec.JobID)
	rec.AllocAt = s.sim.Now()
	if len(cmd.Hosts) == 0 {
		s.rejectDynLocked(rec, "pbs: not enough accelerators available", true)
		return
	}
	j := s.index.find(rec.JobID)
	if j == nil || j.info.State != JobRunning {
		s.rejectDynLocked(rec, "pbs: job no longer running", false)
		return
	}
	var nbuf [hostBuf]*serverNode
	nodes := nbuf[:0]
	for _, h := range cmd.Hosts {
		n, ok := s.nodes[h]
		bad := !ok || n.info.Down
		if !bad {
			switch rec.Kind {
			case KindAccelerator:
				bad = n.info.Type != AcceleratorNode || len(n.used) > 0
			case KindCompute:
				// Malleable extension: the scheduler picks compute
				// nodes this job does not already occupy.
				c, _, _ := n.holds(rec.JobID)
				bad = n.info.Type != ComputeNode || n.info.FreeCores() < rec.PPN || c > 0
			}
		}
		if bad {
			s.logErr("DynAllocCmd %d: %s %s unavailable", cmd.ReqID, rec.Kind, h)
			s.rejectDynLocked(rec, "pbs: allocation raced with another job", false)
			return
		}
		nodes = append(nodes, n)
	}
	s.nextClient++
	rec.ClientID = s.nextClient
	rec.Hosts = cmd.Hosts
	s.advanceDynLocked(rec, DynForwarding, int64(rec.ClientID))
	c := 1
	if rec.Kind == KindCompute {
		c = rec.PPN
	}
	for _, n := range nodes {
		n.hold(rec.JobID, c)
		s.refreshLocked(n)
		s.aud.Record(audit.KindAlloc, "pbs", n.info.Name, rec.JobID, int64(c), 1)
	}
	if j.info.DynSets == nil {
		j.info.DynSets = make(map[int][]string)
	}
	// The newest client-id sorts last: appendHosts order is kept.
	j.info.DynSets[rec.ClientID] = rec.Hosts
	j.nodes = append(j.nodes, nodes...)

	s.sendTo(&j.nodes[0].mom, Take(&s.out, DynAddMsg{
		JobID: rec.JobID, ReqID: rec.ReqID, ClientID: rec.ClientID,
		CN: rec.CN, Hosts: rec.Hosts, ReplyTo: ServerEndpoint, Cause: sp.ID(),
	}), sp.ID())
}

func (s *Server) handleDynAddAck(ack *DynAddAck) {
	var sp *trace.Span
	if trc := s.sim.Tracer(); trc != nil {
		sp = trc.Start(ServerTrack, "dynack", "req", strconv.Itoa(ack.ReqID))
	}
	sp.Link(ack.Cause) // mother superior's mom.dynadd span
	defer sp.End()
	rec := s.dynInLocked(ack.ReqID, DynForwarding)
	if rec == nil {
		s.logErr("DynAddAck for unknown request %d", ack.ReqID)
		return
	}
	sp.Annotate("job", rec.JobID)
	rec.ForwardedAt = s.sim.Now()
	s.advanceDynLocked(rec, DynGranted, int64(rec.ClientID))
	route := s.dynReply[rec.ReqID]
	resp := Take(&s.out, DynGetResp{ReqID: route.clientReq, ClientID: rec.ClientID, Hosts: rec.Hosts})
	jobID := rec.JobID
	var buf [128]byte
	detail := appendGrantDetail(buf[:0], rec)
	s.finishDynLocked(rec)
	s.account(AcctDynGrant, jobID, detail)
	s.send(route.ep, resp)
}

// dynInLocked finds the unanswered request a scheduler command or a
// mom's acknowledgement names, if it is in the state that message
// presumes (nil otherwise: answered meanwhile, or never known).
func (s *Server) dynInLocked(reqID int, state DynState) *DynRecord {
	for _, r := range s.dynQ {
		if r.ReqID == reqID && r.State == state {
			return r
		}
	}
	return nil
}

// finishDynLocked archives a finished request into its job's record
// and resumes servicing the queue.
func (s *Server) finishDynLocked(rec *DynRecord) {
	// One span per dynamic request covering the whole protocol
	// interval (arrival at the server until the reply), the quantity
	// Figures 7(b)-9 measure. The telemetry histogram records the same
	// interval, so live p99s line up with the post-hoc figures.
	s.inst.dynLatency.Record(rec.RepliedAt - rec.ArrivedAt)
	outcome := s.inst.dynGranted
	if rec.State == DynRejected {
		outcome = s.inst.dynRejected
	}
	outcome.Inc()
	if trc := s.sim.Tracer(); trc != nil {
		trc.AsyncSpanLinkAt(ServerTrack, "dyn.request", 0, rec.ArrivedAt, rec.RepliedAt-rec.ArrivedAt,
			"job", rec.JobID, "count", fmt.Sprint(rec.Count), "outcome", rec.State.String(),
			"req", strconv.Itoa(rec.ReqID))
	}
	delete(s.dynReply, rec.ReqID)
	for i, r := range s.dynQ {
		if r == rec {
			s.dynQ = append(s.dynQ[:i], s.dynQ[i+1:]...)
			break
		}
	}
	if j := s.index.find(rec.JobID); j != nil {
		j.info.DynRecords = append(j.info.DynRecords, *rec)
	}
	s.startNextDynLocked()
}

func (s *Server) handleJobDone(jobID string) {
	sp := s.sim.Tracer().Start(ServerTrack, "jobdone", "job", jobID)
	defer sp.End()
	s.endJob(jobID, &endCompleted, "", "", nil)
}

// freeJobLocked releases every node held by the job. The job's resolved
// nodes are every node it can occupy, so the release touches only those
// instead of sweeping the whole node database. It returns them, in
// appendHosts order: their moms are the daemons to tell that the job
// ended.
func (s *Server) freeJobLocked(j *serverJob) []*serverNode {
	id := j.info.ID
	for _, n := range j.nodes {
		if c, held := n.drop(id); held {
			s.aud.Record(audit.KindRelease, "pbs", n.info.Name, id, int64(c), 0)
			s.refreshLocked(n)
		}
	}
	return j.nodes
}

// refreshLocked recomputes the node's public view after its holds
// changed, folding the elapsed busy time into the accounting integral
// first. The job list is rebuilt in place, in the holds' job-ID order:
// whoever keeps it past the handler copies it.
func (s *Server) refreshLocked(n *serverNode) {
	s.accrueLocked(n)
	used := 0
	jobs := n.info.Jobs[:0]
	for _, u := range n.used {
		used += u.n
		jobs = append(jobs, u.job)
	}
	if n.info.Type == AcceleratorNode {
		n.info.UsedCores = 0
	} else {
		n.info.UsedCores = used
	}
	n.info.Jobs = jobs
	s.touchLocked(n)
	s.aud.Record(audit.KindNode, "pbs", n.info.Name, "", int64(n.info.Cores-n.info.UsedCores), int64(len(n.used)))
}

// nodeView clones the node database into freshly allocated storage. It
// serves the client-facing NodesReq path and checkpoints, whose callers
// may keep the result indefinitely.
func (s *Server) nodeView() []NodeInfo {
	out := make([]NodeInfo, len(s.table))
	for i, n := range s.table {
		out[i].copyFrom(&n.info)
	}
	return out
}

// appendNodeDelta appends the node's (index, NodeInfo) pair to a pooled
// answer, reviving the spare element past len and its Jobs buffer.
func appendNodeDelta(dst []NodeDelta, n *serverNode) []NodeDelta {
	if len(dst) < cap(dst) {
		dst = dst[:len(dst)+1]
	} else {
		dst = append(dst, NodeDelta{})
	}
	d := &dst[len(dst)-1]
	d.Index = n.idx
	d.Info.copyFrom(&n.info)
	return dst
}

// cloneInfo deep-copies a job's qstat record for Stat, List, Wait and
// checkpoints (the scheduler gets the slim view handleSchedInfo builds).
// This is the API boundary: inside the batch system a host list is
// shared and never written, a client may do with its copy what it likes.
func cloneInfo(in JobInfo) JobInfo {
	out := in
	out.Hosts = slices.Clone(in.Hosts)
	out.AccHosts = slices.Clone(in.AccHosts)
	for i, acs := range out.AccHosts {
		out.AccHosts[i] = slices.Clone(acs)
	}
	out.DynSets = nil // List copies every job on record, and most hold no dynamic set
	if len(in.DynSets) > 0 {
		out.DynSets = make(map[int][]string, len(in.DynSets))
		for k, v := range in.DynSets {
			out.DynSets[k] = slices.Clone(v)
		}
	}
	out.DynRecords = slices.Clone(in.DynRecords)
	return out
}
