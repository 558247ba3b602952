package pbs

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/audit"
)

// The job index: one submission-ordered log and one active list, for
// both server architectures. One handler runs at a time, whichever
// station serves it, so a shard worker needs no index of its own, and
// one list appended to in submission order is in the order the
// scheduler must be shown. A job id starts with its sequence number,
// handed out in submission order, so the log is sorted by it and is
// its own index: find parses the number and reads the entry.

// jobSeq extracts the numeric sequence of a job id ("17.pbs/server"
// -> 17). Ids that do not start with digits, or whose digits overflow
// an int, map to sequence 0, which no job has.
func jobSeq(id string) int {
	n := 0
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			break
		}
		d := int(c - '0')
		if n > (math.MaxInt-d)/10 {
			return 0
		}
		n = n*10 + d
	}
	return n
}

// jobIndex is the server's job database.
type jobIndex struct {
	// log holds one entry per job, strictly ascending in sequence
	// number. Only the retention window (purgeRetiredLocked) takes a
	// record out, and it leaves the entry until the log compacts.
	// records and retired count the entries with a record and those
	// without, apart from the log, for jobs.count to check.
	log              []jobRef
	records, retired int
	// active holds, in submission order, the jobs that may still concern
	// the scheduler (queued, held, or running), and the dead that ended
	// since the last compact. Entries point at the records themselves, so
	// a walk neither looks ids up nor re-parses their sequence numbers;
	// the retention window purges a record only after compact dropped its
	// entry (auditCycleLocked's jobs.index holds it to that).
	active []activeJob
	dead   int
}

type activeJob struct {
	seq int
	j   *serverJob
}

// jobRef is one entry of the log: the id, which outlives the record
// once retention purges it (j is nil from then on), and its sequence
// number, so walking the log never re-parses ids; idh, under a recorder
// only, is the pbs.jobs digest state after the id (audit.go).
type jobRef struct {
	seq int
	id  string
	j   *serverJob
	idh audit.Digest
}

// entry returns the log entry of sequence seq, or nil. The log is dense
// since its last compaction, so the newest entries sit as far from its
// end as their numbers from the last; the few that outlived a compaction
// (long jobs, held ones) are found by binary search.
func (ix *jobIndex) entry(seq int) *jobRef {
	n := len(ix.log)
	if n == 0 {
		return nil
	}
	if d := ix.log[n-1].seq - seq; d >= 0 && d < n && ix.log[n-1-d].seq == seq {
		return &ix.log[n-1-d]
	}
	if i, ok := slices.BinarySearchFunc(ix.log, seq, func(r jobRef, seq int) int { return cmp.Compare(r.seq, seq) }); ok {
		return &ix.log[i]
	}
	return nil
}

// find returns the record of the job id names, or nil.
func (ix *jobIndex) find(id string) *serverJob {
	if e := ix.entry(jobSeq(id)); e != nil && e.j != nil && e.j.info.ID == id {
		return e.j
	}
	return nil
}

// activate appends the job to the active list. Callers activate in
// submission order, so the list stays sorted by sequence number.
func (ix *jobIndex) activate(j *serverJob) {
	ix.active = append(ix.active, activeJob{seq: j.seq, j: j})
}

// compact drops the terminal jobs from the active list.
func (ix *jobIndex) compact() {
	ix.active = slices.DeleteFunc(ix.active, func(e activeJob) bool { return !e.j.live() })
	ix.dead = 0
}
