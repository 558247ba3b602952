// Package pbs implements a TORQUE-like resource management system
// extended for network-attached accelerators, following Section III of
// the paper: a pbs_server daemon with job queues and a node database,
// pbs_mom daemons with the JOIN_JOB / DYNJOIN_JOB / DISJOIN_JOB
// protocols, and an Interface Library (IFL) extended with the
// pbs_dynget() and pbs_dynfree() calls for dynamic allocation of
// accelerators at application runtime.
//
// The scheduler is external, as in TORQUE/Maui: it learns about work
// through kick notifications, pulls queue and node state, and pushes
// allocation commands (package maui provides the implementation).
package pbs

import (
	"slices"
	"time"
)

// JobState is the lifecycle state of a job at the server.
type JobState int

// Job lifecycle states. There is no separate "dynqueued" job state:
// as in the paper, a dynamic request re-enqueues the *request* with a
// special state while the job keeps running; see DynState.
const (
	JobQueued JobState = iota
	JobRunning
	JobCompleted
	JobDeleted
	// JobFailed marks a job whose compute node died under it (the
	// fault-tolerance extension of the paper's outlook, Section VI).
	JobFailed
)

// String returns the qstat-style name of the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "Q"
	case JobRunning:
		return "R"
	case JobCompleted:
		return "C"
	case JobDeleted:
		return "D"
	case JobFailed:
		return "F"
	default:
		return "?"
	}
}

// DynState is the lifecycle state of a dynamic allocation request.
type DynState int

// Dynamic request states: a request arrives, holds the special
// dynqueued state while waiting for the scheduler, and ends granted
// or rejected.
const (
	DynQueued DynState = iota
	DynScheduling
	DynForwarding // allocated; mother superior performing DYNJOIN
	DynGranted
	DynRejected
)

// String returns a short name for the dynamic request state.
func (s DynState) String() string {
	switch s {
	case DynQueued:
		return "dynqueued"
	case DynScheduling:
		return "scheduling"
	case DynForwarding:
		return "forwarding"
	case DynGranted:
		return "granted"
	case DynRejected:
		return "rejected"
	default:
		return "?"
	}
}

// Script is the body of a job. It runs once per allocated compute
// node as a simulation actor; returning ends that node's task.
type Script func(env *JobEnv)

// JobSpec is what qsub submits: the paper's
// "-l nodes=k:ppn=q:acpn=x" plus walltime estimate and script.
type JobSpec struct {
	Name     string
	Owner    string
	Nodes    int           // k: compute nodes
	PPN      int           // q: cores per compute node
	ACPN     int           // x: network-attached accelerators per compute node
	Walltime time.Duration // user estimate, used by backfill
	Priority int           // site-assigned base priority
	Script   Script
}

// JobEnv is the execution environment a mom hands to each compute
// node task — the counterpart of TORQUE's PBS_* environment variables
// plus handles into the simulated cluster.
type JobEnv struct {
	JobID string
	Rank  int    // index of this compute node within the job
	Host  string // this compute node
	// Hosts and AccHosts are the placement's own lists, shared with the
	// server and the moms: a script reads them and never writes them.
	Hosts    []string // PBS_NODEFILE: all compute nodes of the job
	AccHosts []string // statically allocated accelerators of this compute node
	ServerEP string   // pbs_server endpoint, for IFL calls
	MSHost   string   // mother superior host

	// Cluster is an opaque handle installed by the cluster wiring;
	// the DAC resource-management library recovers its context (MPI
	// runtime, port registry, devices) through it.
	Cluster any

	// TaskSpan is the trace-span id of this task's job.run span; DAC
	// library calls made from the script link their spans to it so the
	// profiler can attribute accelerator setup to the owning task.
	TaskSpan uint64
}

// DynGrant is the successful result of a pbs_dynget call: the
// client-id identifying the dynamically allocated set and the
// accelerator hosts in it.
type DynGrant struct {
	ClientID int
	Hosts    []string
}

// ResourceKind selects what a dynamic request asks for. The paper's
// system allocates network-attached accelerators; compute-node
// requests are the "malleable application" extension it sketches in
// Section V ("with little extensions ... any malleable application
// could be supported").
type ResourceKind int

// Dynamic request kinds.
const (
	KindAccelerator ResourceKind = iota
	KindCompute
)

// String names the resource kind.
func (k ResourceKind) String() string {
	if k == KindCompute {
		return "compute"
	}
	return "accelerator"
}

// DynRecord is the server's bookkeeping for one dynamic request,
// exposed for experiments: the timestamps decompose Figures 7(b), 8
// and 9.
type DynRecord struct {
	ReqID    int // server-assigned, unique across the cluster
	JobID    string
	CN       string
	Count    int
	Kind     ResourceKind
	PPN      int // cores per node for KindCompute requests
	State    DynState
	ClientID int
	Hosts    []string

	ArrivedAt   time.Duration // request received by the server
	ServiceAt   time.Duration // server began servicing (head of dyn queue)
	AllocAt     time.Duration // scheduler decision arrived
	ForwardedAt time.Duration // mother superior finished DYNJOIN updates
	RepliedAt   time.Duration // reply sent to the compute node
	FreedAt     time.Duration // pbs_dynfree received (zero while held)
}

// JobInfo is the qstat view of a job.
type JobInfo struct {
	ID          string
	Spec        JobSpec
	State       JobState
	Held        bool             // qhold: queued but not schedulable
	Hosts       []string         // allocated compute nodes
	AccHosts    [][]string       // statically allocated accelerators of Hosts[i]; nil when the job asked for none
	DynSets     map[int][]string // client-id -> dynamically allocated accelerators; nil until the first grant
	SubmittedAt time.Duration
	AllocatedAt time.Duration
	StartedAt   time.Duration
	CompletedAt time.Duration
	DynRecords  []DynRecord
}

// hostBuf sizes the stack buffers appendHosts is handed: a job on more
// hosts than this spills to the heap.
const hostBuf = 16

// appendHosts appends every host of a placement to dst: the compute
// nodes, then the static accelerators in compute-node order, then the
// dynamic sets by ascending client id. It is the only walk over a
// job's host lists, so nodes are committed, released, audited and told
// of the job's end in this one order every run (DESIGN.md §10).
func appendHosts(dst, hosts []string, acc [][]string, dyn map[int][]string) []string {
	dst = append(dst, hosts...)
	for _, acs := range acc {
		dst = append(dst, acs...)
	}
	var buf [8]int
	ids := buf[:0]
	for id := range dyn {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = append(dst, dyn[id]...)
	}
	return dst
}

// accOf returns the static accelerators of compute node i of a
// placement (nil when the job asked for none).
func accOf(acc [][]string, i int) []string {
	if i < len(acc) {
		return acc[i]
	}
	return nil
}

// NodeType distinguishes compute nodes from network-attached
// accelerators in the node database.
type NodeType int

// Node types.
const (
	ComputeNode NodeType = iota
	AcceleratorNode
)

// String names the node type as the server's nodes file would.
func (t NodeType) String() string {
	if t == AcceleratorNode {
		return "accelerator"
	}
	return "compute"
}

// NodeInfo is the pbsnodes view of one node.
type NodeInfo struct {
	Name      string
	Type      NodeType
	Cores     int
	UsedCores int
	Down      bool     // failure detector marked the node unreachable
	Jobs      []string // job ids using the node (owner job for accelerators)
}

// Free reports whether an accelerator node is unassigned, or a
// compute node has at least one free core. Down nodes are never free.
func (n NodeInfo) Free() bool {
	if n.Down {
		return false
	}
	if n.Type == AcceleratorNode {
		return len(n.Jobs) == 0
	}
	return n.UsedCores < n.Cores
}

// FreeCores reports the unused cores of a compute node.
func (n NodeInfo) FreeCores() int { return n.Cores - n.UsedCores }

// copyFrom deep-copies src into n, reusing n's Jobs buffer.
func (n *NodeInfo) copyFrom(src *NodeInfo) {
	jobs := append(n.Jobs[:0], src.Jobs...)
	*n = *src
	n.Jobs = jobs
}
