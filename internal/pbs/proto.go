package pbs

import "time"

// Wire protocol of the batch system. Every payload travels over the
// netsim fabric under the "pbs" tag as a record from its sender's free
// list (free.go), which the receiver dispatches on and hands back. Fields
// named ReplyTo carry the endpoint that expects the response; ReqID
// correlates it.

// --- Client (IFL) <-> server ---

// SubmitReq is qsub.
type SubmitReq struct {
	record
	ReqID   int
	ReplyTo string
	Spec    JobSpec
}

// SubmitResp acknowledges a submission.
type SubmitResp struct {
	record
	ReqID int
	JobID string
	Err   string
}

// StatReq is qstat for one job.
type StatReq struct {
	record
	ReqID   int
	ReplyTo string
	JobID   string
}

// StatResp returns the job view.
type StatResp struct {
	record
	ReqID int
	Info  JobInfo
	Err   string
}

// NodesReq is pbsnodes.
type NodesReq struct {
	record
	ReqID   int
	ReplyTo string
}

// NodesResp returns the node database view.
type NodesResp struct {
	record
	ReqID int
	Nodes []NodeInfo
}

// AlterReq is pbs_alterjob / qalter: change attributes of a queued
// job (the paper's Section III-A names this IFL call). Zero-valued
// fields stay unchanged.
type AlterReq struct {
	record
	ReqID    int
	ReplyTo  string
	JobID    string
	Priority *int
	Walltime time.Duration
	Name     string
}

// AlterResp acknowledges a qalter.
type AlterResp struct {
	record
	ReqID int
	Err   string
}

// ListReq is qstat without arguments: every job.
type ListReq struct {
	record
	ReqID   int
	ReplyTo string
}

// ListResp carries the full queue view in submission order.
type ListResp struct {
	record
	ReqID int
	Jobs  []JobInfo
}

// HoldReq is qhold (Hold true) or qrls (Hold false): a held job stays
// queued but is invisible to the scheduler until released.
type HoldReq struct {
	record
	ReqID   int
	ReplyTo string
	JobID   string
	Hold    bool
}

// HoldResp acknowledges a qhold/qrls.
type HoldResp struct {
	record
	ReqID int
	Err   string
}

// DeleteReq is qdel.
type DeleteReq struct {
	record
	ReqID   int
	ReplyTo string
	JobID   string
}

// DeleteResp acknowledges a deletion.
type DeleteResp struct {
	record
	ReqID int
	Err   string
}

// WaitReq subscribes to a job's completion; the server answers once
// the job completes (immediately if it already did).
type WaitReq struct {
	record
	ReqID   int
	ReplyTo string
	JobID   string
}

// WaitResp reports a completed (or deleted) job.
type WaitResp struct {
	record
	ReqID int
	Info  JobInfo
	Err   string
}

// DynGetReq is the new pbs_dynget() IFL call (paper Section III-B):
// a running job's compute node requests Count additional resources —
// network-attached accelerators by default, or compute nodes for
// malleable jobs (Kind = KindCompute, with PPN cores per node).
type DynGetReq struct {
	record
	ReqID   int
	ReplyTo string
	JobID   string
	CN      string // requesting compute node
	Count   int
	Kind    ResourceKind
	PPN     int // cores per node (KindCompute only)
}

// DynGetResp answers a pbs_dynget. A rejection carries Err and a
// negative ClientID, mirroring the paper's "negative valued reply".
type DynGetResp struct {
	record
	ReqID    int
	ClientID int
	Hosts    []string
	Err      string
}

// DynFreeReq is the new pbs_dynfree() IFL call: release the
// dynamically allocated set identified by ClientID.
type DynFreeReq struct {
	record
	ReqID    int
	ReplyTo  string
	JobID    string
	ClientID int
}

// DynFreeResp acknowledges a release. The server replies positively
// before the moms finish disassociating, as in the paper.
type DynFreeResp struct {
	record
	ReqID int
	Err   string
}

// --- Scheduler <-> server ---

// SchedKick tells the scheduler that server state changed (new job,
// completion, dynamic request). Reason is diagnostic.
type SchedKick struct {
	record
	Reason string
}

// SchedInfoReq is the scheduler pulling queue and node state. Its
// record is on no list: the scheduler's Mirror owns the one request it
// reuses every round, and the server reads it only while it handles
// that round, during which the scheduler waits for the answer.
type SchedInfoReq struct {
	record
	ReqID   int
	ReplyTo string
	// Gen is the view generation the scheduler's mirror holds, as the
	// last SchedInfoResp stamped it (0: holds nothing).
	Gen uint64
}

// SchedDynView is the scheduler's view of the dynamic request the
// server is currently servicing.
type SchedDynView struct {
	ReqID     int
	JobID     string
	Count     int
	Kind      ResourceKind
	PPN       int
	ArrivedAt time.Duration
}

// NodeDelta is one changed entry of the node table: its position in
// node-database order and its current view.
type NodeDelta struct {
	Index int
	Info  NodeInfo
}

// JobPhase is where a job stands as a scheduler sees it. A held job is
// gone until qrls brings it back.
type JobPhase uint8

const (
	PhaseGone    JobPhase = iota // terminal or held: nothing to schedule
	PhaseQueued                  // waiting for allocation
	PhaseRunning                 // holding resources
)

// SchedJobView is what a scheduler reads of a job: who it is, its place
// in submission order, its phase, how long it has waited or run (the
// start is zero until the mother superior reported it) and what it asks
// for.
type SchedJobView struct {
	ID          string
	Seq         int
	Phase       JobPhase
	SubmittedAt time.Duration
	StartedAt   time.Duration
	Spec        JobSpec
}

// SchedInfoResp carries everything one scheduling iteration needs, and
// of a job only what a scheduler reads (DESIGN.md §6): the full qstat
// record, with its host lists and dynamic-request history, stays with
// Stat and List. Nodes and Jobs hold the entries that changed since the
// request's Gen — unless Full: the server could not serve a delta from
// that generation (see handleSchedInfo), so they hold every node and
// every queued and running job — and Gen is the generation a mirror
// holds once it applied them.
type SchedInfoResp struct {
	record
	ReqID           int
	Dyn             []SchedDynView // dynamic request(s) awaiting allocation, FIFO
	Gen             uint64
	Full            bool
	Nodes           []NodeDelta
	Jobs            []SchedJobView
	Queued, Running int // jobs in either phase
}

// AllocCmd is the scheduler's decision for a queued job: which
// compute nodes to use and which accelerators to bind to each
// (AccHosts[i] to Hosts[i]; nil when the job asked for none). The
// lists are handed over: server, moms and the job script hold these
// very slices, and nobody writes a host list once it is built.
// Cause carries the trace-span id of the placement decision so the
// server's alloc span joins the causal chain (0 when untraced).
type AllocCmd struct {
	record
	JobID    string
	Hosts    []string
	AccHosts [][]string
	Cause    uint64
}

// DynAllocCmd is the scheduler's decision for a dynamic request.
// Empty Hosts means rejection (not enough accelerators free).
type DynAllocCmd struct {
	record
	ReqID int
	Hosts []string
	Cause uint64 // trace-span id of the scheduling decision
}

// --- Server <-> mom ---

// RunJobMsg makes the receiving mom the mother superior of a job.
type RunJobMsg struct {
	record
	JobID    string
	Spec     JobSpec
	Hosts    []string
	AccHosts [][]string
	Cause    uint64 // trace-span id of the server's alloc handling
}

// JoinJobMsg is the JOIN_JOB request from the mother superior to a
// sister mom.
type JoinJobMsg struct {
	record
	JobID   string
	MS      string // mother superior host
	Hosts   []string
	ReplyTo string
}

// JoinAck acknowledges a JOIN_JOB.
type JoinAck struct {
	record
	JobID string
	Host  string
}

// StartTaskMsg launches the job script on a compute node mom. The
// script travels with the message (in-process simulation; a real mom
// would stage the job script file).
type StartTaskMsg struct {
	record
	JobID  string
	Env    *JobEnv
	Script Script
	Cause  uint64 // trace-span id of the mother superior's job start
}

// TaskDoneMsg reports a compute node task's completion to the mother
// superior.
type TaskDoneMsg struct {
	record
	JobID string
	Host  string
}

// JobStartedMsg reports to the server that execution began.
type JobStartedMsg struct {
	record
	JobID string
}

// JobDoneMsg reports to the server that every task finished.
type JobDoneMsg struct {
	record
	JobID string
}

// ReleaseJobMsg tells a mom the job ended; it kills any remaining
// tasks (accelerator daemons) and frees its resources.
type ReleaseJobMsg struct {
	record
	JobID string
}

// DynAddMsg tells the mother superior to incorporate dynamically
// allocated accelerators (server -> MS, then MS drives DYNJOIN_JOB).
type DynAddMsg struct {
	record
	JobID    string
	ReqID    int
	ClientID int
	CN       string // compute node that requested the set
	Hosts    []string
	ReplyTo  string // server endpoint expecting DynAddAck
	Cause    uint64 // trace-span id of the server's dynalloc handling
}

// DynJoinJobMsg is the DYNJOIN_JOB request from the mother superior
// to a newly allocated accelerator mom.
type DynJoinJobMsg struct {
	record
	JobID   string
	ReplyTo string
}

// DynJoinAck acknowledges a DYNJOIN_JOB.
type DynJoinAck struct {
	record
	JobID string
	Host  string
}

// DynAddAck reports to the server that the mother superior finished
// incorporating the new accelerators.
type DynAddAck struct {
	record
	JobID string
	ReqID int
	Cause uint64 // trace-span id of the mom's dynadd handling
}

// UpdateJobMsg refreshes a sister mom's view of the job's host set
// after a dynamic addition or removal.
type UpdateJobMsg struct {
	record
	JobID string
	Hosts []string
}

// DynRemoveMsg tells the mother superior to disassociate a released
// dynamic set (server -> MS, then MS drives DISJOIN_JOB).
type DynRemoveMsg struct {
	record
	JobID    string
	ClientID int
	Hosts    []string
}

// DisJoinJobMsg is the DISJOIN_JOB request: the receiving mom kills
// remaining tasks and leaves the job.
type DisJoinJobMsg struct {
	record
	JobID   string
	ReplyTo string
}

// DisJoinAck acknowledges a DISJOIN_JOB.
type DisJoinAck struct {
	record
	JobID string
	Host  string
}

// AbortJobMsg tells the mother superior to abort a running job
// (qdel).
type AbortJobMsg struct {
	record
	JobID string
}

// HeartbeatMsg is a mom's periodic liveness report to the server (the
// fault-tolerance extension, paper Section VI).
type HeartbeatMsg struct {
	record
	Host string
}

// NodeLostMsg informs the mother superior that one of its job's hosts
// was declared dead; for an accelerator host the job keeps running
// without it.
type NodeLostMsg struct {
	record
	JobID string
	Host  string
}
