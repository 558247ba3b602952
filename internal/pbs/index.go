package pbs

import "slices"

// The job index: one map and one submission-ordered active list, for
// both server architectures. Every handler runs under s.mu, whichever
// actor it runs on, so a shard worker needs no map of its own, and one
// list appended to in submission order is in the order the scheduler
// must be shown.

// jobSeq extracts the numeric sequence of a job id ("17.pbs/server"
// -> 17). Ids that do not start with digits map to sequence 0.
func jobSeq(id string) int {
	n := 0
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// jobIndex is the server's job database.
type jobIndex struct {
	// jobs finds a record by id. Only the retention window
	// (purgeRetiredLocked) deletes from it, and only terminal jobs that
	// compact has already taken off the active list.
	jobs map[string]*serverJob
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

// jobRef is one entry of the submission-order log: the id, which
// outlives the record once retention purges it, and its sequence
// number, so walking the log never re-parses ids.
type jobRef struct {
	seq int
	id  string
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
