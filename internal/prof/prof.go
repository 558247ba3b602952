// Package prof is the causal critical-path profiler: it ingests the
// virtual-time span stream recorded by internal/trace, reconstructs
// each job's causal chain across the batch-system layers (queue →
// scheduler cycle → server RPC → fabric hop → daemon spawn → compute
// → teardown), and attributes every nanosecond of a job's end-to-end
// latency to exactly one phase.
//
// The attribution is exact by construction: each phase is the
// difference of two consecutive causal milestones, so the per-phase
// durations telescope to the job's end-to-end virtual-time latency
// with byte-identical integer arithmetic — no sampling, no residue.
// This is the decomposition the paper's evaluation performs by hand
// for Figures 7(a), 7(b), and 8 (static allocation overhead vs
// dynamic request overhead), generalized to every job of a run.
//
// Inputs come from a live *trace.Tracer (Events) or a capture file
// (the Spans of capture.Read); outputs are per-job profiles, aggregate
// per-phase tables and a regression diff that names the phase
// responsible for drift between two captures (agg.go), and per-job
// critical paths and folded flamegraph stacks (critical.go).
package prof

import (
	"strconv"
	"time"

	"repro/internal/trace"
)

// Static phase names, in causal order. Each is the interval between
// two consecutive milestones of the static allocation chain:
//
//	queue     submit arrives at the server → scheduler places the job
//	schedule  placement decision → server processes the allocation
//	dispatch  server allocation → mother superior receives the job
//	spawn     mother superior start → first compute-node task runs
//	run       first task start → last task end (the job script)
//	finalize  last task end → server marks the job done
var StaticPhases = []string{"queue", "schedule", "dispatch", "spawn", "run", "finalize"}

// Dynamic phase names, in causal order — the decomposition of one
// pbs_dynget round trip (the quantity of Figures 7(b), 8, and 9):
//
//	dyn.queue     request arrives → scheduler examines it (granted cycle)
//	dyn.schedule  scheduler decision → server processes the allocation
//	dyn.dispatch  server command → mother superior receives it
//	dyn.spawn     mother superior integrates the accelerators
//	dyn.ack       integration ack → server replies to the library
var DynPhases = []string{"dyn.queue", "dyn.schedule", "dyn.dispatch", "dyn.spawn", "dyn.ack"}

// Phase is one exactly-attributed share of a latency.
type Phase struct {
	Name string
	Dur  time.Duration
}

// PathSegment is one hop of a job's critical path: during [Start,
// Start+Dur) the deepest span covering the job's timeline belonged to
// Owner ("track;name", with the @host instance suffix stripped).
type PathSegment struct {
	Owner string
	Start time.Duration
	Dur   time.Duration
}

// JobProfile is the exact latency decomposition of one batch job.
type JobProfile struct {
	ID     string
	Submit time.Duration // arrival of the qsub at the server
	Done   time.Duration // server marks the job completed
	Phases []Phase       // StaticPhases order; sums exactly to Total
	Path   []PathSegment // critical path through the causal DAG
}

// Total is the job's end-to-end virtual-time latency.
func (j *JobProfile) Total() time.Duration { return j.Done - j.Submit }

// DynProfile is the exact decomposition of one dynamic request.
type DynProfile struct {
	ReqID  int
	JobID  string
	Start  time.Duration
	Total  time.Duration // the server's dyn.request envelope
	Phases []Phase       // DynPhases order; sums exactly to Total
}

// Profile is the analysis of one capture.
type Profile struct {
	Jobs []JobProfile
	Dyns []DynProfile
	// Rejected counts dynamic requests that ended rejected (they have
	// no grant chain to decompose).
	Rejected int
	// Incomplete lists jobs and requests whose causal chain is missing
	// a milestone (deleted jobs, uninstrumented schedulers, truncated
	// captures), with the reason.
	Incomplete []string
}

// milestones of the static chain, in causal order.
type jobChain struct {
	submit, place, alloc, momStart time.Duration
	runMin, runMax, done           time.Duration
	hasSubmit, hasPlace, hasAlloc  bool
	hasMom, hasDone                bool
	runs                           int
}

// milestones of one dynamic request.
type dynChain struct {
	jobID                 string
	arrive, sched, alloc  time.Duration
	addStart, addEnd, ack time.Duration
	envStart, envDur      time.Duration
	outcome               string
	hasArrive, hasSched   bool
	hasAlloc, hasAdd      bool
	hasAck, hasEnv        bool
}

// arg returns the value of one event annotation ("" when absent).
func arg(ev *trace.Event, key string) string {
	for _, kv := range ev.Args {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// component strips the @host instance suffix from a track name, so
// "pbs/mom@cn3" and "pbs/mom@cn7" both report as "pbs/mom".
func component(track string) string {
	for i := 0; i < len(track); i++ {
		if track[i] == '@' {
			return track[:i]
		}
	}
	return track
}

// Analyze reconstructs every job's causal chain from a span stream
// and returns the exact per-phase attribution plus critical paths.
// The stream may come from Tracer.Events or a capture file; event
// order does not matter.
func Analyze(events []trace.Event) *Profile {
	jobs := make(map[string]*jobChain)
	jobOrder := []string{}
	dyns := make(map[int]*dynChain)
	dynOrder := []int{}

	jobOf := func(ev *trace.Event) *jobChain {
		id := arg(ev, "job")
		if id == "" {
			return nil
		}
		c, ok := jobs[id]
		if !ok {
			c = &jobChain{}
			jobs[id] = c
			jobOrder = append(jobOrder, id)
		}
		return c
	}
	dynOf := func(ev *trace.Event) *dynChain {
		req, err := strconv.Atoi(arg(ev, "req"))
		if err != nil {
			return nil
		}
		c, ok := dyns[req]
		if !ok {
			c = &dynChain{}
			dyns[req] = c
			dynOrder = append(dynOrder, req)
		}
		return c
	}

	for i := range events {
		ev := &events[i]
		if ev.Kind != trace.KindSpan {
			continue
		}
		switch component(ev.Track) + ";" + ev.Name {
		case "pbs/server;submit":
			if c := jobOf(ev); c != nil {
				c.submit, c.hasSubmit = ev.Start, true
			}
		case "maui;place":
			if c := jobOf(ev); c != nil {
				c.place, c.hasPlace = ev.Start, true
			}
		case "pbs/server;alloc":
			if c := jobOf(ev); c != nil {
				c.alloc, c.hasAlloc = ev.Start, true
			}
		case "pbs/mom;mom.start":
			if c := jobOf(ev); c != nil {
				c.momStart, c.hasMom = ev.Start, true
			}
		case "pbs/mom;job.run":
			if c := jobOf(ev); c != nil {
				if c.runs == 0 || ev.Start < c.runMin {
					c.runMin = ev.Start
				}
				if end := ev.Start + ev.Dur; c.runs == 0 || end > c.runMax {
					c.runMax = end
				}
				c.runs++
			}
		case "pbs/server;jobdone":
			if c := jobOf(ev); c != nil {
				c.done, c.hasDone = ev.Start+ev.Dur, true
			}
		case "pbs/server;dynget":
			if c := dynOf(ev); c != nil {
				c.arrive, c.hasArrive = ev.Start, true
				c.jobID = arg(ev, "job")
			}
		case "maui;sched.dyn":
			// A request can be examined by several cycles before
			// resources free up; the granting cycle is the milestone
			// (earlier examinations are still queue wait).
			if c := dynOf(ev); c != nil && arg(ev, "granted") == "true" {
				c.sched, c.hasSched = ev.Start, true
			}
		case "pbs/server;dynalloc":
			if c := dynOf(ev); c != nil {
				c.alloc, c.hasAlloc = ev.Start, true
			}
		case "pbs/mom;mom.dynadd":
			if c := dynOf(ev); c != nil {
				c.addStart, c.addEnd, c.hasAdd = ev.Start, ev.Start+ev.Dur, true
			}
		case "pbs/server;dynack":
			if c := dynOf(ev); c != nil {
				c.ack, c.hasAck = ev.Start+ev.Dur, true
			}
		case "pbs/server;dyn.request":
			if c := dynOf(ev); c != nil {
				c.envStart, c.envDur, c.hasEnv = ev.Start, ev.Dur, true
				c.outcome = arg(ev, "outcome")
			}
		}
	}

	p := &Profile{}
	cp := newPathIndex(events)
	for _, id := range jobOrder {
		c := jobs[id]
		switch {
		case !c.hasSubmit:
			p.Incomplete = append(p.Incomplete, "job "+id+": no submit span")
			continue
		case !c.hasPlace:
			p.Incomplete = append(p.Incomplete, "job "+id+": no placement span (uninstrumented scheduler?)")
			continue
		case !c.hasAlloc || !c.hasMom || c.runs == 0 || !c.hasDone:
			p.Incomplete = append(p.Incomplete, "job "+id+": allocation chain incomplete")
			continue
		}
		ms := []time.Duration{c.submit, c.place, c.alloc, c.momStart, c.runMin, c.runMax, c.done}
		mono := true
		for i := 1; i < len(ms); i++ {
			if ms[i] < ms[i-1] {
				mono = false
			}
		}
		if !mono {
			p.Incomplete = append(p.Incomplete, "job "+id+": non-monotone milestones")
			continue
		}
		jp := JobProfile{ID: id, Submit: c.submit, Done: c.done}
		for i, name := range StaticPhases {
			jp.Phases = append(jp.Phases, Phase{Name: name, Dur: ms[i+1] - ms[i]})
		}
		jp.Path = cp.criticalPath(id, c.submit, c.done)
		p.Jobs = append(p.Jobs, jp)
	}
	for _, req := range dynOrder {
		c := dyns[req]
		if c.hasEnv && c.outcome == "rejected" {
			p.Rejected++
			continue
		}
		label := "dyn request " + strconv.Itoa(req)
		if !c.hasArrive || !c.hasSched || !c.hasAlloc || !c.hasAdd || !c.hasAck || !c.hasEnv {
			p.Incomplete = append(p.Incomplete, label+": grant chain incomplete")
			continue
		}
		ms := []time.Duration{c.arrive, c.sched, c.alloc, c.addStart, c.addEnd, c.ack}
		mono := c.arrive == c.envStart && c.ack == c.envStart+c.envDur
		for i := 1; i < len(ms); i++ {
			if ms[i] < ms[i-1] {
				mono = false
			}
		}
		if !mono {
			p.Incomplete = append(p.Incomplete, label+": milestones disagree with the request envelope")
			continue
		}
		dp := DynProfile{ReqID: req, JobID: c.jobID, Start: c.envStart, Total: c.envDur}
		for i, name := range DynPhases {
			dp.Phases = append(dp.Phases, Phase{Name: name, Dur: ms[i+1] - ms[i]})
		}
		p.Dyns = append(p.Dyns, dp)
	}
	return p
}
