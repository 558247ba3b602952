package pbs

// Job-record retention: the machinery that keeps a resident server at
// steady-state memory. The original batch configuration retains every
// job record forever — the right behavior for post-hoc figure
// extraction, where qstat must see any job ever run, but an open-loop
// service instance submitting millions of jobs would grow the index,
// the submission-order log, and the accounting log without bound.
//
// With ServerParams.RetainCompleted > 0 the server keeps a sliding
// window of terminal records: endJob enqueues the job id on doneQ
// (each job ends exactly once, so ids never enqueue twice), and at each
// scheduler-cycle boundary (handleSchedInfo) the oldest records beyond
// the window are taken off the active list and purged from the index
// and recycled through a free pool, so steady state allocates no new
// records at all. The submission-order log compacts once
// purged ids dominate it, and the audit invariant jobs.count accounts
// for the retired ids (see auditGlobalLocked).
//
// All purging happens at the deterministic cycle boundary, never on
// the message path, so results stay byte-identical across -parallel
// levels and the retention window only changes which records are
// still inspectable — not what the cluster computes.

// JobRecordStats reports the server's job-record economy: live
// records in the index, terminal records retained in the window, and
// the cumulative counts of purged records and pool reuses. Soak tests
// assert purged grows while live+retained stays flat, and that reuse
// tracks submissions once the pool warms up.
type JobRecordStats struct {
	Live     int
	Retained int
	Purged   uint64
	Reused   uint64
}

// JobRecords returns the current record statistics.
func (s *Server) JobRecords() JobRecordStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobRecordStats{
		Live:     len(s.index.jobs) - len(s.doneQ) + s.doneHead,
		Retained: len(s.doneQ) - s.doneHead,
		Purged:   s.purged,
		Reused:   s.reused,
	}
}

// acquireJobLocked returns a job record, recycling one from the pool
// when retention has freed any. Callers hold s.mu and must fill every
// identity field; a pooled record comes back empty, bar the storage it
// owns (see recycleLocked).
func (s *Server) acquireJobLocked() *serverJob {
	if n := len(s.jobPool); n > 0 {
		j := s.jobPool[n-1]
		s.jobPool[n-1] = nil
		s.jobPool = s.jobPool[:n-1]
		s.reused++
		return j
	}
	return new(serverJob)
}

// purgeRetiredLocked drops the oldest terminal records beyond the
// retention window, off the active list first. Called from
// handleSchedInfo before auditCycleLocked, so the invariant engine sees
// the post-purge state. Callers hold s.mu.
func (s *Server) purgeRetiredLocked() {
	r := s.params.RetainCompleted
	if r <= 0 {
		return
	}
	k := len(s.doneQ) - s.doneHead - r
	if k <= 0 {
		return
	}
	s.index.compact()
	for _, id := range s.doneQ[s.doneHead : s.doneHead+k] {
		j, ok := s.index.jobs[id]
		if !ok {
			continue
		}
		delete(s.index.jobs, id)
		s.recycleLocked(j)
		s.retired++
		s.purged++
	}
	s.doneHead += k
	if s.doneHead > len(s.doneQ)/2 { // slide the window down once it is the smaller part
		n := copy(s.doneQ, s.doneQ[s.doneHead:])
		clear(s.doneQ[n:])
		s.doneQ, s.doneHead = s.doneQ[:n], 0
	}
	// The submission-order log keeps purged ids (the audit digest
	// hashes them as retired); compact it once they dominate, so a
	// long-running service holds O(retention window) ids, not
	// O(jobs ever).
	if s.retired > 256 && s.retired > len(s.order)/2 {
		w := 0
		for _, ref := range s.order {
			if _, ok := s.index.jobs[ref.id]; ok {
				s.order[w] = ref
				w++
			}
		}
		clear(s.order[w:])
		s.order = s.order[:w]
		s.retired = 0
	}
}

// recycleLocked scrubs a purged record and returns it to the pool. It
// keeps what the record owns for the next submission — the dynamic-set
// map, if a grant ever made one, and the request history's array — and
// drops the host lists, which belong to everyone the placement went to.
func (s *Server) recycleLocked(j *serverJob) {
	clear(j.info.DynSets)
	*j = serverJob{info: JobInfo{DynSets: j.info.DynSets, DynRecords: j.info.DynRecords[:0]}}
	s.jobPool = append(s.jobPool, j)
}
