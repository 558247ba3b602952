package pbs

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
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
// the dynamic-request machinery added for the DAC environment.
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

	mu         sync.Mutex
	schedEP    string
	nextJob    int
	nextClient int
	nextDyn    int
	// index is the job database; see index.go for the compaction
	// invariants.
	index jobIndex
	// order is the submission-order log; purged ids stay in it until
	// retention compacts it.
	order []jobRef
	// table is the node database in AddNode order; nodes finds the same
	// records by name.
	table []*serverNode
	nodes map[string]*serverNode
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
	acct      []AccountingRecord
	errs      []string

	// Retention state (see retention.go); all zero when
	// RetainCompleted is 0.
	doneQ    []string // terminal job ids, oldest first from doneHead on
	doneHead int
	retired  int          // ids purged from the index but still in order
	purged   uint64       // cumulative purge count
	reused   uint64       // cumulative pool-reuse count
	jobPool  []*serverJob // scrubbed records awaiting reuse
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
	// gen and phase are the job's view as touchJobLocked last stamped it.
	gen   uint64
	phase JobPhase
}

// live reports whether the job still holds, or waits for, resources.
func (j *serverJob) live() bool {
	return j.info.State == JobRunning || j.info.State == JobQueued
}

type serverNode struct {
	info   NodeInfo
	momEP  string         // fabric name of the node's mom, built once
	usedBy map[string]int // jobID -> cores (compute) or accelerator count (1)
	idx    int            // position in Server.table
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
		index:     jobIndex{jobs: make(map[string]*serverJob)},
		nodes:     make(map[string]*serverNode),
		dynWindow: 1,
		dynReply:  make(map[int]dynReplyTo),
		waiters:   make(map[string][]waiter),
	}
	// The station model (station.go): the paper's serial server, or
	// Shards stations of unbounded batches and an unbounded dyn window.
	st := station{sim: s.sim, batch: 1, serve: s.handle,
		cost: func(*netsim.Message) time.Duration { return params.Processing }}
	if params.Shards > 1 {
		st.batch, s.dynWindow = math.MaxInt, math.MaxInt
		st.batches, st.busy = s.inst.rpcBatches, s.inst.shardBusy
	}
	s.stations = make([]station, max(params.Shards, 1))
	for i := range s.stations {
		s.stations[i] = st
	}
	s.registerAudit()
	return s
}

// AddNode registers a node in the server's node database.
func (s *Server) AddNode(name string, typ NodeType, cores int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addNodeLocked(&serverNode{
		info:     NodeInfo{Name: name, Type: typ, Cores: cores},
		usedBy:   make(map[string]int),
		lastSeen: s.sim.Now(),
	})
}

// ReserveNodes sizes the node database for n more nodes, so that
// registering a cluster neither rehashes the name map nor regrows the
// table on the way.
func (s *Server) ReserveNodes(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := make(map[string]*serverNode, len(s.nodes)+n)
	maps.Copy(nodes, s.nodes)
	s.nodes = nodes
	s.table = slices.Grow(s.table, n)
}

// addNodeLocked appends a node to the dense table and the name map.
// Callers hold s.mu.
func (s *Server) addNodeLocked(n *serverNode) {
	n.momEP = MomEndpoint(n.info.Name)
	n.idx = len(s.table)
	s.table = append(s.table, n)
	s.nodes[n.info.Name] = n
	s.touchLocked(n)
}

// momEPLocked is MomEndpoint for the per-request paths: a host of the
// node database costs a lookup, not a string. Callers hold s.mu.
func (s *Server) momEPLocked(host string) string {
	if n, ok := s.nodes[host]; ok {
		return n.momEP
	}
	return MomEndpoint(host)
}

// touchLocked marks the node's NodeInfo as changed since the last
// scheduler answer. Every site that writes n.info calls it; the
// generation stamp keeps a node changed twice between two answers
// from being listed twice. Callers hold s.mu.
func (s *Server) touchLocked(n *serverNode) {
	if n.gen <= s.gen {
		n.gen = s.gen + 1
		s.changed = append(s.changed, n.idx)
	}
}

// touchJobLocked is touchLocked for a job's view, and keeps the phase
// counts. Every write of a field the view reads calls it: advance,
// qalter, qhold/qrls, the start report, Restore. Callers hold s.mu.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schedEP = ep
}

// Errors returns protocol anomalies the server observed (for tests).
func (s *Server) Errors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.errs...)
}

// Start installs the server's endpoint handler, which takes over what
// queued there (a restarted server's backlog), and spawns the failure
// detector when enabled.
func (s *Server) Start() {
	s.startFailureDetector()
	s.ep.SetHandler(s.receive)
}

// receive is the server endpoint's handler: it routes each request to
// its station. A stopMsg takes the handler off the endpoint: the
// stations serve what they hold, and what arrives later queues for a
// restarted server.
func (s *Server) receive(m *netsim.Message) bool {
	if _, stop := m.Payload.(stopMsg); stop {
		s.ep.SetHandler(nil)
		m.Release()
		return true
	}
	s.stations[s.shardFor(m.Payload, &s.rr)].offer(m)
	return true
}

func (s *Server) send(to string, payload any) {
	s.sendCause(to, payload, 0)
}

// sendCause is send with the trace-span id that produced the message,
// so the fabric's delivery span links back to the causing work.
func (s *Server) sendCause(to string, payload any, cause uint64) {
	if err := s.ep.SendCause(to, "pbs", payload, 0, cause); err != nil {
		s.mu.Lock()
		s.errs = append(s.errs, fmt.Sprintf("send to %s: %v", to, err))
		s.mu.Unlock()
	}
}

// kickPayloads pre-boxes the SchedKick for every reason the server
// uses, so the per-event kick path does not allocate an interface box.
// The map is read-only after init.
var kickPayloads = func() map[string]any {
	m := make(map[string]any)
	for _, r := range []string{"submit", "qalter", "qrls", "delete", "dynfree", "jobdone", "restore"} {
		m[r] = SchedKick{Reason: r}
	}
	return m
}()

func (s *Server) kickScheduler(reason string) {
	s.mu.Lock()
	ep := s.schedEP
	s.mu.Unlock()
	if ep == "" {
		return
	}
	payload, ok := kickPayloads[reason]
	if !ok {
		payload = SchedKick{Reason: reason}
	}
	s.send(ep, payload)
}

func (s *Server) logErr(format string, args ...any) {
	s.mu.Lock()
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// handle serves one request and records its service time as the
// requester experiences the server: head-of-line wait (implicit in
// Delivered -> now) plus processing and handling.
func (s *Server) handle(m *netsim.Message) {
	switch req := m.Payload.(type) {
	case SubmitReq:
		s.handleSubmit(req)
	case StatReq:
		s.handleStat(req)
	case NodesReq:
		s.send(req.ReplyTo, NodesResp{ReqID: req.ReqID, Nodes: s.nodeView()})
	case AlterReq:
		s.handleAlter(req)
	case HoldReq:
		s.handleHold(req)
	case ListReq:
		s.handleList(req)
	case DeleteReq:
		s.handleDelete(req)
	case WaitReq:
		s.handleWait(req)
	case DynGetReq:
		s.handleDynGet(req)
	case DynFreeReq:
		s.handleDynFree(req)
	case *SchedInfoReq:
		s.handleSchedInfo(req)
	case AllocCmd:
		s.handleAlloc(req)
	case DynAllocCmd:
		s.handleDynAlloc(req)
	case JobStartedMsg:
		if s.withJob(req.JobID, func(j *serverJob) { j.info.StartedAt = s.sim.Now(); s.touchJobLocked(j) }) {
			s.account(AcctStarted, req.JobID, nil)
		}
	case JobDoneMsg:
		s.handleJobDone(req.JobID)
	case DynAddAck:
		s.handleDynAddAck(req)
	case HeartbeatMsg:
		s.heartbeat(req.Host)
	default:
		s.logErr("server: unexpected message %T from %s", m.Payload, m.From)
	}
	s.inst.rpcService.Record(s.sim.Now() - m.Delivered)
}

func (s *Server) withJob(id string, fn func(*serverJob)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.index.jobs[id]
	if !ok {
		return false
	}
	fn(j)
	return true
}

// ServerTrack is the server's observability track name.
const ServerTrack = "pbs/server"

func (s *Server) handleSubmit(req SubmitReq) {
	sp := s.sim.Tracer().Start(ServerTrack, "submit", "owner", req.Spec.Owner)
	defer sp.End()
	if req.Spec.Nodes <= 0 || req.Spec.PPN < 0 || req.Spec.ACPN < 0 {
		s.send(req.ReplyTo, SubmitResp{ReqID: req.ReqID, Err: "pbs: invalid resource request"})
		return
	}
	s.mu.Lock()
	s.nextJob++
	seq := s.nextJob
	var idBuf [32]byte
	id := string(append(strconv.AppendUint(idBuf[:0], uint64(seq), 10), "."+ServerEndpoint...))
	j := s.acquireJobLocked()
	j.seq = seq
	j.info.ID = id
	j.info.Spec = req.Spec
	s.advanceJobLocked(j, JobQueued, int64(seq)) // before the index knows the id: born here
	s.index.jobs[id] = j
	s.order = append(s.order, jobRef{seq: seq, id: id})
	s.index.activate(j)
	s.mu.Unlock()
	sp.Annotate("job", id)
	s.inst.submits.Inc()
	var buf [96]byte
	s.account(AcctQueued, id, appendQueuedDetail(buf[:0], req.Spec))
	s.send(req.ReplyTo, SubmitResp{ReqID: req.ReqID, JobID: id})
	s.kickScheduler("submit")
}

func (s *Server) handleStat(req StatReq) {
	s.mu.Lock()
	j, ok := s.index.jobs[req.JobID]
	var info JobInfo
	if ok {
		info = cloneInfo(j.info)
	}
	s.mu.Unlock()
	if !ok {
		s.send(req.ReplyTo, StatResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()})
		return
	}
	s.send(req.ReplyTo, StatResp{ReqID: req.ReqID, Info: info})
}

// handleAlter applies qalter to a job that has not started yet.
func (s *Server) handleAlter(req AlterReq) {
	s.mu.Lock()
	j, ok := s.index.jobs[req.JobID]
	if !ok {
		s.mu.Unlock()
		s.send(req.ReplyTo, AlterResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()})
		return
	}
	if j.info.State != JobQueued {
		s.mu.Unlock()
		s.send(req.ReplyTo, AlterResp{ReqID: req.ReqID, Err: "pbs: job already started"})
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
	s.mu.Unlock()
	s.send(req.ReplyTo, AlterResp{ReqID: req.ReqID})
	s.kickScheduler("qalter")
}

// handleHold applies qhold/qrls to a queued job.
func (s *Server) handleHold(req HoldReq) {
	s.mu.Lock()
	j, ok := s.index.jobs[req.JobID]
	if !ok {
		s.mu.Unlock()
		s.send(req.ReplyTo, HoldResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()})
		return
	}
	if j.info.State != JobQueued {
		s.mu.Unlock()
		s.send(req.ReplyTo, HoldResp{ReqID: req.ReqID, Err: "pbs: job not queued"})
		return
	}
	j.info.Held = req.Hold
	s.touchJobLocked(j)
	s.mu.Unlock()
	s.send(req.ReplyTo, HoldResp{ReqID: req.ReqID})
	if !req.Hold {
		s.kickScheduler("qrls")
	}
}

// handleList returns every job in submission order.
func (s *Server) handleList(req ListReq) {
	s.mu.Lock()
	jobs := make([]JobInfo, 0, len(s.order))
	for _, ref := range s.order {
		if j, ok := s.index.jobs[ref.id]; ok {
			jobs = append(jobs, cloneInfo(j.info))
		}
	}
	s.mu.Unlock()
	s.send(req.ReplyTo, ListResp{ReqID: req.ReqID, Jobs: jobs})
}

// handleDelete is qdel. Deleting a job that already ended succeeds and
// changes nothing, but wakes the scheduler like any other qdel.
func (s *Server) handleDelete(req DeleteReq) {
	resp := DeleteResp{ReqID: req.ReqID}
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

func (s *Server) handleWait(req WaitReq) {
	s.mu.Lock()
	j, ok := s.index.jobs[req.JobID]
	if !ok {
		s.mu.Unlock()
		s.send(req.ReplyTo, WaitResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()})
		return
	}
	if st := j.info.State; st == JobCompleted || st == JobDeleted || st == JobFailed {
		info := cloneInfo(j.info)
		s.mu.Unlock()
		s.send(req.ReplyTo, WaitResp{ReqID: req.ReqID, Info: info})
		return
	}
	s.waiters[req.JobID] = append(s.waiters[req.JobID], waiter{reqID: req.ReqID, replyTo: req.ReplyTo})
	s.mu.Unlock()
}

// handleDynGet enqueues a dynamic request in the special dynqueued
// state; startNextDynLocked takes it into service.
func (s *Server) handleDynGet(req DynGetReq) {
	var sp *trace.Span
	if trc := s.sim.Tracer(); trc != nil {
		sp = trc.Start(ServerTrack, "dynget",
			"job", req.JobID, "count", strconv.Itoa(req.Count), "kind", req.Kind.String())
	}
	defer sp.End()
	s.mu.Lock()
	j, ok := s.index.jobs[req.JobID]
	if !ok || j.info.State != JobRunning || req.Count <= 0 {
		s.mu.Unlock()
		reason := "pbs: job not running"
		if req.Count <= 0 {
			reason = "pbs: invalid accelerator count"
		}
		s.send(req.ReplyTo, DynGetResp{ReqID: req.ReqID, ClientID: -1, Err: reason})
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
	s.mu.Unlock()
}

// startNextDynLocked takes every dynqueued request inside the service
// window into scheduling and kicks the scheduler if there was one.
// Requests enter service oldest first and leave the queue when they
// end, so the requests in service are the queue's head. Callers hold
// s.mu.
func (s *Server) startNextDynLocked() {
	kicked := false
	for _, rec := range s.dynQ[:min(len(s.dynQ), s.dynWindow)] {
		if rec.State == DynQueued {
			s.advanceDynLocked(rec, DynScheduling, 0)
			kicked = true
		}
	}
	if kicked && s.schedEP != "" {
		s.sendLockedSafe(s.schedEP, SchedKick{Reason: "dynqueued"})
	}
}

// sendLockedSafe sends while s.mu is held; netsim Send never blocks,
// so this cannot deadlock, but keep it distinct for clarity.
func (s *Server) sendLockedSafe(to string, payload any) {
	if err := s.ep.Send(to, "pbs", payload, 0); err != nil {
		s.errs = append(s.errs, fmt.Sprintf("send to %s: %v", to, err))
	}
}

func (s *Server) handleDynFree(req DynFreeReq) {
	s.mu.Lock()
	j, ok := s.index.jobs[req.JobID]
	if !ok {
		s.mu.Unlock()
		s.send(req.ReplyTo, DynFreeResp{ReqID: req.ReqID, Err: ErrUnknownJob.Error()})
		return
	}
	if _, ok := j.info.DynSets[req.ClientID]; !ok {
		s.mu.Unlock()
		s.send(req.ReplyTo, DynFreeResp{ReqID: req.ReqID, Err: "pbs: unknown client-id"})
		return
	}
	for i := range j.info.DynRecords {
		if j.info.DynRecords[i].ClientID == req.ClientID {
			j.info.DynRecords[i].FreedAt = s.sim.Now()
		}
	}
	hosts := s.releaseDynSetLocked(j, req.ClientID)
	s.aud.Record(audit.KindJob, "pbs", req.JobID, audDynFree, int64(req.ClientID), int64(len(hosts)))
	ms := ""
	if len(j.info.Hosts) > 0 {
		ms = s.momEPLocked(j.info.Hosts[0])
	}
	s.mu.Unlock()

	// Positive reply first; disassociation proceeds while the
	// application continues (paper Section III-D).
	var buf [32]byte
	s.account(AcctDynFree, req.JobID, appendKV(buf[:0], "client=", req.ClientID))
	s.send(req.ReplyTo, DynFreeResp{ReqID: req.ReqID})
	if ms != "" {
		s.send(ms, DynRemoveMsg{JobID: req.JobID, ClientID: req.ClientID, Hosts: hosts})
	}
	s.kickScheduler("dynfree")
}

// releaseDynSetLocked hands one dynamic set of a job back to the pool
// and returns the hosts that were in it. Callers hold s.mu.
func (s *Server) releaseDynSetLocked(j *serverJob, clientID int) []string {
	id, hosts := j.info.ID, j.info.DynSets[clientID]
	delete(j.info.DynSets, clientID)
	for _, h := range hosts {
		if n, ok := s.nodes[h]; ok {
			s.aud.Record(audit.KindRelease, "pbs", h, id, int64(n.usedBy[id]), 1)
			delete(n.usedBy, id)
			s.refreshLocked(n)
		}
	}
	return hosts
}

// schedRespPool recycles the per-cycle scheduler answer. The server
// hands a *SchedInfoResp to exactly one scheduler, which owns it (and
// every slice hanging off it) until it calls Release after its cycle;
// the next handleSchedInfo then refills the same buffers in place, so
// the steady-state cost of an answer is copying, not allocating.
var schedRespPool = sync.Pool{New: func() any { return new(SchedInfoResp) }}

// Release returns the snapshot and its buffers to the server's pool.
// The scheduler must not touch the response — including any slice
// obtained from it — after releasing.
func (r *SchedInfoResp) Release() {
	if r == nil {
		return
	}
	schedRespPool.Put(r)
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
	resp := schedRespPool.Get().(*SchedInfoResp)
	resp.ReqID = req.ReqID
	resp.Dyn = resp.Dyn[:0]
	resp.Nodes = resp.Nodes[:0]
	resp.Jobs = resp.Jobs[:0]
	s.mu.Lock()
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
	s.mu.Unlock()
	s.aud.Record(audit.KindCycle, "pbs", audSchedInfoCyc, "", int64(resp.Queued), int64(resp.Running))
	s.inst.queueDepth.Set(float64(resp.Queued))
	s.inst.dynPending.Set(float64(len(resp.Dyn)))
	s.send(req.ReplyTo, resp)
}

func (s *Server) handleAlloc(cmd AllocCmd) {
	sp := s.sim.Tracer().Start(ServerTrack, "alloc", "job", cmd.JobID)
	sp.Link(cmd.Cause) // scheduler's place span
	defer sp.End()
	s.mu.Lock()
	j, ok := s.index.jobs[cmd.JobID]
	if !ok || j.info.State != JobQueued || j.info.Held || len(j.info.Hosts) > 0 {
		// A job deleted, failed, held — or, with the sharded server,
		// already allocated by a command this snapshot raced — while
		// the scheduler was mid-cycle legitimately races its
		// allocation; drop the command. Only a wholly unknown job ID
		// indicates a real bug.
		benign := ok
		s.mu.Unlock()
		if !benign {
			s.logErr("AllocCmd for job %s in invalid state", cmd.JobID)
		}
		return
	}
	// Validate and commit the assignment: compute nodes first, then the
	// accelerators in compute-node order.
	var buf [hostBuf]string
	all := appendHosts(buf[:0], cmd.Hosts, cmd.AccHosts, nil)
	for i, h := range all {
		n, ok := s.nodes[h]
		what := "compute node"
		if i < len(cmd.Hosts) {
			ok = ok && n.info.Type == ComputeNode && n.info.FreeCores() >= j.info.Spec.PPN
		} else {
			what = "accelerator"
			ok = ok && n.info.Type == AcceleratorNode && len(n.usedBy) == 0
		}
		if !ok {
			s.mu.Unlock()
			s.logErr("AllocCmd for job %s: %s %s unavailable", cmd.JobID, what, h)
			return
		}
	}
	for i, h := range all {
		n, c := s.nodes[h], 1
		if i < len(cmd.Hosts) {
			c = j.info.Spec.PPN
		}
		n.usedBy[cmd.JobID] = c
		s.refreshLocked(n)
		s.aud.Record(audit.KindAlloc, "pbs", h, cmd.JobID, int64(c), 0)
	}
	j.info.Hosts = cmd.Hosts
	j.info.AccHosts = cmd.AccHosts
	s.advanceJobLocked(j, JobRunning, int64(len(cmd.Hosts)))
	spec := j.info.Spec
	ms := s.momEPLocked(cmd.Hosts[0])
	s.mu.Unlock()

	// Select the mother superior (always a compute node, paper
	// Section III-C) and forward the job.
	s.sendCause(ms,
		RunJobMsg{JobID: cmd.JobID, Spec: spec, Hosts: cmd.Hosts, AccHosts: cmd.AccHosts, Cause: sp.ID()}, sp.ID())
}

func (s *Server) handleDynAlloc(cmd DynAllocCmd) {
	var sp *trace.Span
	if trc := s.sim.Tracer(); trc != nil {
		sp = trc.Start(ServerTrack, "dynalloc", "req", strconv.Itoa(cmd.ReqID))
	}
	sp.Link(cmd.Cause) // scheduler's sched.dyn span
	defer sp.End()
	s.mu.Lock()
	rec := s.dynInLocked(cmd.ReqID, DynScheduling)
	if rec == nil {
		s.mu.Unlock()
		s.logErr("DynAllocCmd for unknown request %d", cmd.ReqID)
		return
	}
	sp.Annotate("job", rec.JobID)
	rec.AllocAt = s.sim.Now()
	if len(cmd.Hosts) == 0 {
		s.rejectDynLocked(rec, "pbs: not enough accelerators available", true)
		s.mu.Unlock()
		return
	}
	j, ok := s.index.jobs[rec.JobID]
	if !ok || j.info.State != JobRunning {
		s.rejectDynLocked(rec, "pbs: job no longer running", false)
		s.mu.Unlock()
		return
	}
	for _, h := range cmd.Hosts {
		n, ok := s.nodes[h]
		bad := !ok || n.info.Down
		if !bad {
			switch rec.Kind {
			case KindAccelerator:
				bad = n.info.Type != AcceleratorNode || len(n.usedBy) > 0
			case KindCompute:
				// Malleable extension: the scheduler picks compute
				// nodes this job does not already occupy.
				bad = n.info.Type != ComputeNode || n.info.FreeCores() < rec.PPN || n.usedBy[rec.JobID] > 0
			}
		}
		if bad {
			s.errs = append(s.errs, fmt.Sprintf("DynAllocCmd %d: %s %s unavailable", cmd.ReqID, rec.Kind, h))
			s.rejectDynLocked(rec, "pbs: allocation raced with another job", false)
			s.mu.Unlock()
			return
		}
	}
	s.nextClient++
	rec.ClientID = s.nextClient
	rec.Hosts = cmd.Hosts
	s.advanceDynLocked(rec, DynForwarding, int64(rec.ClientID))
	for _, h := range cmd.Hosts {
		n := s.nodes[h]
		if rec.Kind == KindCompute {
			n.usedBy[rec.JobID] = rec.PPN
		} else {
			n.usedBy[rec.JobID] = 1
		}
		s.refreshLocked(n)
		s.aud.Record(audit.KindAlloc, "pbs", h, rec.JobID, int64(n.usedBy[rec.JobID]), 1)
	}
	if j.info.DynSets == nil {
		j.info.DynSets = make(map[int][]string)
	}
	j.info.DynSets[rec.ClientID] = rec.Hosts
	ms := s.momEPLocked(j.info.Hosts[0])
	s.mu.Unlock()

	s.sendCause(ms, DynAddMsg{
		JobID: rec.JobID, ReqID: rec.ReqID, ClientID: rec.ClientID,
		CN: rec.CN, Hosts: rec.Hosts, ReplyTo: ServerEndpoint, Cause: sp.ID(),
	}, sp.ID())
}

func (s *Server) handleDynAddAck(ack DynAddAck) {
	var sp *trace.Span
	if trc := s.sim.Tracer(); trc != nil {
		sp = trc.Start(ServerTrack, "dynack", "req", strconv.Itoa(ack.ReqID))
	}
	sp.Link(ack.Cause) // mother superior's mom.dynadd span
	defer sp.End()
	s.mu.Lock()
	rec := s.dynInLocked(ack.ReqID, DynForwarding)
	if rec == nil {
		s.mu.Unlock()
		s.logErr("DynAddAck for unknown request %d", ack.ReqID)
		return
	}
	sp.Annotate("job", rec.JobID)
	rec.ForwardedAt = s.sim.Now()
	s.advanceDynLocked(rec, DynGranted, int64(rec.ClientID))
	route := s.dynReply[rec.ReqID]
	resp := DynGetResp{ReqID: route.clientReq, ClientID: rec.ClientID, Hosts: rec.Hosts}
	jobID := rec.JobID
	var buf [128]byte
	detail := appendGrantDetail(buf[:0], rec)
	s.finishDynLocked(rec)
	s.mu.Unlock()
	s.account(AcctDynGrant, jobID, detail)
	s.send(route.ep, resp)
}

// dynInLocked finds the unanswered request a scheduler command or a
// mom's acknowledgement names, if it is in the state that message
// presumes (nil otherwise: answered meanwhile, or never known).
// Callers hold s.mu.
func (s *Server) dynInLocked(reqID int, state DynState) *DynRecord {
	for _, r := range s.dynQ {
		if r.ReqID == reqID && r.State == state {
			return r
		}
	}
	return nil
}

// finishDynLocked archives a finished request into its job's record
// and resumes servicing the queue. Callers hold s.mu.
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
	if j, ok := s.index.jobs[rec.JobID]; ok {
		j.info.DynRecords = append(j.info.DynRecords, *rec)
	}
	s.startNextDynLocked()
}

func (s *Server) handleJobDone(jobID string) {
	sp := s.sim.Tracer().Start(ServerTrack, "jobdone", "job", jobID)
	defer sp.End()
	s.endJob(jobID, &endCompleted, "", "", nil)
}

// freeJobLocked releases every node held by the job. The job's own
// host lists name every node it can occupy, so the release touches
// only those instead of sweeping the whole node database. It returns,
// appended to dst in appendHosts order, the fabric names of the moms on
// those hosts: the daemons to tell that the job ended. Callers hold s.mu.
func (s *Server) freeJobLocked(j *serverJob, dst []string) []string {
	id := j.info.ID
	moms := appendHosts(dst, j.info.Hosts, j.info.AccHosts, j.info.DynSets)
	for i, h := range moms {
		n, ok := s.nodes[h]
		if !ok {
			moms[i] = MomEndpoint(h)
			continue
		}
		moms[i] = n.momEP
		if c, held := n.usedBy[id]; held {
			s.aud.Record(audit.KindRelease, "pbs", h, id, int64(c), 0)
			delete(n.usedBy, id)
			s.refreshLocked(n)
		}
	}
	return moms
}

// refreshLocked recomputes the node's public view after a usedBy
// mutation, folding the elapsed busy time into the accounting
// integral first. The job list is rebuilt in place: whoever reads it
// past s.mu copies it. Callers hold s.mu.
func (s *Server) refreshLocked(n *serverNode) {
	s.accrueLocked(n)
	used := 0
	jobs := n.info.Jobs[:0]
	for id, c := range n.usedBy {
		used += c
		jobs = append(jobs, id)
	}
	sort.Strings(jobs)
	if n.info.Type == AcceleratorNode {
		n.info.UsedCores = 0
	} else {
		n.info.UsedCores = used
	}
	n.info.Jobs = jobs
	s.touchLocked(n)
	s.aud.Record(audit.KindNode, "pbs", n.info.Name, "", int64(n.info.Cores-n.info.UsedCores), int64(len(n.usedBy)))
}

func (s *Server) nodeView() []NodeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeViewLocked()
}

// nodeViewLocked clones the node database into freshly allocated
// storage. It serves the client-facing NodesReq path, whose callers may
// keep the result indefinitely.
func (s *Server) nodeViewLocked() []NodeInfo {
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
