package pbs

// The partitioned job index. Both server architectures (the faithful
// 2013 single-actor loop and the sharded fast path of shard.go) store
// jobs here; with one partition the index degenerates to exactly the
// original single map plus submission-ordered active list, so the
// faithful configuration's behaviour — and every figure derived from
// it — is unchanged. With N partitions each shard's job-scoped
// traffic touches only its own map and active slice, and the
// scheduler snapshot walks the partitions through a sequence-number
// merge that preserves global submission order.

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

// jobIndex is the server's job database, split into partitions keyed
// by job sequence number.
type jobIndex struct {
	parts []jobPart
	// cursors is scratch for the k-way merge in compactActive, kept on
	// the index so steady-state scheduler cycles do not allocate.
	cursors []mergeCursor
}

type jobPart struct {
	jobs map[string]*serverJob
	// active holds, in submission order, this partition's jobs that may
	// still concern the scheduler (queued, held, or running). Terminal
	// jobs are compacted away lazily during compactActive, so a cycle's
	// cost follows the live queue, not the full submission history.
	// Entries point at the records themselves, so the per-cycle walk
	// neither looks ids up nor re-parses their sequence numbers; the
	// retention window purges a record only after compactActive dropped
	// its entry (auditCycleLocked's jobs.partition holds it to that).
	active []activeJob
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

type mergeCursor struct{ read, write int }

func newJobIndex(nParts int) jobIndex {
	if nParts < 1 {
		nParts = 1
	}
	ix := jobIndex{parts: make([]jobPart, nParts), cursors: make([]mergeCursor, nParts)}
	for i := range ix.parts {
		ix.parts[i].jobs = make(map[string]*serverJob)
	}
	return ix
}

func (ix *jobIndex) partFor(seq int) *jobPart {
	return &ix.parts[seq%len(ix.parts)]
}

// get resolves a job by id alone — what a request carries. Paths that
// hold the record or a jobRef use lookup and skip the parse.
func (ix *jobIndex) get(id string) (*serverJob, bool) {
	return ix.lookup(jobSeq(id), id)
}

func (ix *jobIndex) lookup(seq int, id string) (*serverJob, bool) {
	j, ok := ix.partFor(seq).jobs[id]
	return j, ok
}

func (ix *jobIndex) put(seq int, id string, j *serverJob) {
	ix.partFor(seq).jobs[id] = j
}

// remove drops a job from its partition's map. The retention window
// (retention.go) is the only caller, and only for terminal jobs that
// compactActive has already taken off every active list.
func (ix *jobIndex) remove(j *serverJob) {
	delete(ix.partFor(j.seq).jobs, j.info.ID)
}

// activate appends the job to its partition's active list. Callers
// activate in submission order, so every partition's list stays
// sorted by sequence number — the invariant compactActive's merge
// relies on.
func (ix *jobIndex) activate(seq int, j *serverJob) {
	p := ix.partFor(seq)
	p.active = append(p.active, activeJob{seq: seq, j: j})
}

func (ix *jobIndex) size() int {
	n := 0
	for i := range ix.parts {
		n += len(ix.parts[i].jobs)
	}
	return n
}

// compactActive walks every live job in global submission order — a
// k-way merge of the per-partition active lists by sequence number —
// compacting terminal jobs out of each partition in place. visit
// reports whether the job stays active.
func (ix *jobIndex) compactActive(visit func(j *serverJob) bool) {
	if len(ix.parts) == 1 {
		// Single partition: the original walk, byte for byte.
		p := &ix.parts[0]
		w := 0
		for _, e := range p.active {
			if visit(e.j) {
				p.active[w] = e
				w++
			}
		}
		clear(p.active[w:])
		p.active = p.active[:w]
		return
	}
	cur := ix.cursors
	for i := range cur {
		cur[i] = mergeCursor{}
	}
	for {
		best, bestSeq := -1, 0
		for pi := range ix.parts {
			r := cur[pi].read
			if r >= len(ix.parts[pi].active) {
				continue
			}
			if seq := ix.parts[pi].active[r].seq; best < 0 || seq < bestSeq {
				best, bestSeq = pi, seq
			}
		}
		if best < 0 {
			break
		}
		p := &ix.parts[best]
		e := p.active[cur[best].read]
		cur[best].read++
		if visit(e.j) {
			// write trails read, so the in-place compaction never
			// clobbers an unvisited entry.
			p.active[cur[best].write] = e
			cur[best].write++
		}
	}
	for pi := range ix.parts {
		p := &ix.parts[pi]
		w := cur[pi].write
		clear(p.active[w:])
		p.active = p.active[:w]
	}
}
