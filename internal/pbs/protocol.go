package pbs

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
)

// Paper §III as data. A job and a dynamic request each move through a
// small state machine; the two tables below are those machines — for
// every state, the states it may be entered from, the KindJob audit
// record that announces it and the timestamp it stamps — and
// advanceJobLocked / advanceDynLocked are the only code that writes a
// State (scripts/check.sh greps for any other). On top of them endJob
// and rejectDynLocked are the two sequences the handlers used to spell
// out by hand: every way a job leaves the system, and every way a
// request ends without a grant. DESIGN.md §11 draws both machines and
// says which handler takes which edge.

// stateSet is a set of states of one machine, one bit a state.
type stateSet uint8

// unborn stands for a record the server's books do not hold yet — a job
// the index does not know, a request with no reply route — whatever its
// State field reads: the only origin of the two initial states.
const unborn = 7

func setOf[S ~int](states ...S) stateSet {
	var m stateSet
	for _, s := range states {
		m |= 1 << s
	}
	return m
}

func (m stateSet) has(state int) bool { return m>>uint(state)&1 != 0 }

type jobRule struct {
	from  stateSet
	label string
	stamp func(*JobInfo) *time.Duration
}

func completedAt(in *JobInfo) *time.Duration { return &in.CompletedAt }

var jobRules = [...]jobRule{
	JobQueued:    {1 << unborn, "submit", func(in *JobInfo) *time.Duration { return &in.SubmittedAt }},
	JobRunning:   {setOf(JobQueued), "queued->running", func(in *JobInfo) *time.Duration { return &in.AllocatedAt }},
	JobCompleted: {setOf(JobRunning), "running->completed", completedAt},
	JobDeleted:   {setOf(JobQueued, JobRunning), "->deleted", completedAt},
	// A node's job list names only jobs that hold it, and a job holds
	// nodes from the instant it runs: a queued job cannot lose one.
	JobFailed: {setOf(JobRunning), "->failed", completedAt},
}

type dynRule struct {
	from  stateSet
	label string
	stamp func(*DynRecord) *time.Duration // nil: AllocAt is the command's arrival, forwarded or refused
}

func repliedAt(rec *DynRecord) *time.Duration { return &rec.RepliedAt }

var dynRules = [...]dynRule{
	DynQueued:     {1 << unborn, "dyn-queued", func(rec *DynRecord) *time.Duration { return &rec.ArrivedAt }},
	DynScheduling: {setOf(DynQueued), "dyn-scheduling", func(rec *DynRecord) *time.Duration { return &rec.ServiceAt }},
	DynForwarding: {setOf(DynScheduling), "dyn-forwarding", nil},
	DynGranted:    {setOf(DynForwarding), "dyn-granted", repliedAt},
	DynRejected:   {setOf(DynQueued, DynScheduling, DynForwarding), "dyn-rejected", repliedAt},
}

// edgeHook, when set, sees every transition any server takes (test
// hook: protocol_test.go holds the tables to the edges the package's
// scenarios really take). from is unborn for the two initial edges.
var edgeHook atomic.Pointer[func(job bool, from, to int)]

// advanceJobLocked moves a job to a state: it checks the edge against
// the table, stamps the state's timestamp and writes its audit record
// with a as the record's first value. Callers hold s.mu.
func (s *Server) advanceJobLocked(j *serverJob, to JobState, a int64) {
	from := int(j.info.State)
	if s.index.jobs[j.info.ID] != j {
		from = unborn
	}
	r := &jobRules[to]
	s.checkEdgeLocked(true, r.from, from, int(to), j.info.ID)
	j.info.State = to
	*r.stamp(&j.info) = s.sim.Now()
	if !j.live() {
		s.index.dead++ // compact takes it off the active list
	}
	s.touchJobLocked(j)
	s.aud.Record(audit.KindJob, "pbs", j.info.ID, r.label, a, 0)
}

// advanceDynLocked is advanceJobLocked for a dynamic request; the audit
// record carries the request id and b. Callers hold s.mu.
func (s *Server) advanceDynLocked(rec *DynRecord, to DynState, b int64) {
	from := int(rec.State)
	if s.dynReply[rec.ReqID] == (dynReplyTo{}) {
		from = unborn
	}
	r := &dynRules[to]
	s.checkEdgeLocked(false, r.from, from, int(to), rec.JobID)
	rec.State = to
	if r.stamp != nil {
		*r.stamp(rec) = s.sim.Now()
	}
	s.aud.Record(audit.KindJob, "pbs", rec.JobID, r.label, int64(rec.ReqID), b)
}

// checkEdgeLocked flags an edge the table does not hold: a handler bug,
// so a breach and an Errors() entry in production — the write still
// happens, the handler's books assume it — and a panic under test.
func (s *Server) checkEdgeLocked(job bool, legal stateSet, from, to int, jobID string) {
	if h := edgeHook.Load(); h != nil {
		(*h)(job, from, to)
	}
	if legal.has(from) {
		return
	}
	s.aud.Check("pbs", "protocol.edge", jobID, false, int64(from), int64(to))
	msg := fmt.Sprintf("protocol: illegal edge %s (job %s)", edgeName(job, from, to), jobID)
	s.errs = append(s.errs, msg)
	if testing.Testing() {
		panic(msg)
	}
}

// edgeName renders one edge of a machine, "job Q->R" or "request
// scheduling->forwarding"; new is the unborn origin.
func edgeName(job bool, from, to int) string {
	machine, origin, target := "request", DynState(from).String(), DynState(to).String()
	if job {
		machine, origin, target = "job", JobState(from).String(), JobState(to).String()
	}
	if from == unborn {
		origin = "new"
	}
	return machine + " " + origin + "->" + target
}

// jobEnd is one way a job leaves the system. qdel, normal completion
// and a lost compute node are the same sequence — transition, release,
// reject what the job still asked for, tell the moms, account, answer
// whoever waits — and differ by this row.
type jobEnd struct {
	to   JobState
	acct byte
	// kick is the reason the scheduler is woken with; a failed job's
	// kick is nodeDown's, once per node whatever it carried.
	kick string
	// qdel kills a script that is still running: the mother superior is
	// told to abort before anybody is told to release. Its audit record
	// follows the releases and carries the state the job left, as qdel's
	// recordings always read.
	qdel bool
	// counted marks the one end pbs.jobs_done counts.
	counted bool
	// rejects are the states in which a dynamic request of the job dies
	// with it, answered why. A deleted job's requests are refused when
	// the scheduler's answer finds the job gone; a forwarded request of
	// a completing job is granted by the acknowledgement on its way.
	rejects stateSet
	why     string
}

var (
	endDeleted   = jobEnd{to: JobDeleted, acct: AcctDeleted, kick: "delete", qdel: true}
	endCompleted = jobEnd{to: JobCompleted, acct: AcctEnded, kick: "jobdone", counted: true,
		rejects: setOf(DynQueued, DynScheduling), why: "pbs: job completed"}
	endFailed = jobEnd{to: JobFailed, acct: AcctFailed,
		rejects: setOf(DynQueued, DynScheduling, DynForwarding), why: "pbs: job failed (node down)"}
)

// endJob takes a job out of the system by the given row. lostHost, when
// set, is the compute node that died under it: its mom is not told and
// the accounting record names it. reply, when set, is sent to replyTo
// between the accounting record and the waiters' answers. A job in no
// state the target may be entered from (a JobDoneMsg for a deleted job,
// a qdel of a finished one) is left alone.
func (s *Server) endJob(id string, e *jobEnd, lostHost, replyTo string, reply any) (known, ended bool) {
	s.mu.Lock()
	j, ok := s.index.jobs[id]
	if !ok || !jobRules[e.to].from.has(int(j.info.State)) {
		s.mu.Unlock()
		return ok, false
	}
	var buf [hostBuf]string
	var moms []string // of a running job: the mother superior's first
	if e.qdel {
		left := j.info.State
		moms = s.freeJobLocked(j, buf[:0])
		s.advanceJobLocked(j, e.to, int64(left))
	} else {
		s.advanceJobLocked(j, e.to, 0)
		moms = s.freeJobLocked(j, buf[:0])
	}
	if e.counted {
		s.inst.jobsDone.Inc()
	}
	if s.params.RetainCompleted > 0 {
		s.doneQ = append(s.doneQ, id) // retention.go purges from here
	}
	lost := ""
	if lostHost != "" {
		lost = s.momEPLocked(lostHost)
	}
	for i := 0; i < len(s.dynQ); {
		if rec := s.dynQ[i]; rec.JobID == id && e.rejects.has(int(rec.State)) {
			s.rejectDynLocked(rec, e.why, false) // takes rec off the queue
			continue
		}
		i++
	}
	// Most jobs end with nobody waiting: the record is copied only for
	// somebody to read.
	ws := s.waiters[id]
	var info JobInfo
	if len(ws) > 0 {
		delete(s.waiters, id)
		info = cloneInfo(j.info)
	}
	s.mu.Unlock()

	if e.qdel && len(moms) > 0 {
		s.send(moms[0], AbortJobMsg{JobID: id})
	}
	for _, ep := range moms {
		if ep != lost {
			s.send(ep, ReleaseJobMsg{JobID: id})
		}
	}
	var dbuf [64]byte
	var detail []byte
	if lostHost != "" {
		detail = append(append(dbuf[:0], "lost="...), lostHost...)
	}
	s.account(e.acct, id, detail)
	if reply != nil {
		s.send(replyTo, reply)
	}
	for _, w := range ws {
		s.send(w.replyTo, WaitResp{ReqID: w.reqID, Info: info})
	}
	if e.kick != "" {
		s.kickScheduler(e.kick)
	}
	return true, true
}

// rejectDynLocked ends a request without a grant: the client's blocked
// pbs_dynget returns a negative client-id and why, and the application
// continues with the set it has. Only the scheduler's own refusal is an
// accounting event (acct). Callers hold s.mu.
func (s *Server) rejectDynLocked(rec *DynRecord, why string, acct bool) {
	route := s.dynReply[rec.ReqID]
	s.advanceDynLocked(rec, DynRejected, 0)
	s.finishDynLocked(rec)
	if acct {
		var buf [32]byte
		s.accountLocked(AcctDynReject, rec.JobID, appendKV(buf[:0], "count=", rec.Count))
	}
	s.sendLockedSafe(route.ep, DynGetResp{ReqID: route.clientReq, ClientID: -1, Err: why})
}
