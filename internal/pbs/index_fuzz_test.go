package pbs

import (
	"strconv"
	"testing"
)

// fuzzLog is the log of jobs 1..600 as the server keeps it, with the
// records of 3..5 purged. Compacted, it keeps only 1..5, 17 and
// 560..600, as retention leaves it around a long job.
func fuzzLog(compacted bool) *jobIndex {
	ix := &jobIndex{}
	for seq := 1; seq <= 600; seq++ {
		if compacted && seq > 5 && seq < 560 && seq != 17 {
			continue
		}
		e := jobRef{seq: seq, id: strconv.Itoa(seq) + "." + ServerEndpoint}
		if seq < 3 || seq > 5 {
			e.j = &serverJob{seq: seq, info: JobInfo{ID: e.id}}
		}
		ix.log = append(ix.log, e)
	}
	return ix
}

// FuzzJobFind throws arbitrary ids at a dense log and at one retention
// has compacted: find never panics, and it returns a record exactly
// when the log holds one whose id is the one asked for, byte for byte.
func FuzzJobFind(f *testing.F) {
	for _, id := range []string{
		"9223372036854775809.pbs/server", // overflows an int
		"", "0.pbs/server", "17.other",
		"4.pbs/server",   // purged
		"601.pbs/server", // beyond the last job
		"2.pbs/server", "17.pbs/server", "560.pbs/server", "600.pbs/server",
	} {
		f.Add(id)
	}
	logs := []*jobIndex{fuzzLog(false), fuzzLog(true)}
	f.Fuzz(func(t *testing.T, id string) {
		for _, ix := range logs {
			var want *serverJob
			for _, e := range ix.log {
				if e.j != nil && e.j.info.ID == id {
					want = e.j
				}
			}
			if got := ix.find(id); got != want {
				t.Errorf("find(%q) in a log of %d: %v, want %v", id, len(ix.log), got, want)
			}
		}
	})
}
