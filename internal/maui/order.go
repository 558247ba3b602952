package maui

import (
	"cmp"
	"container/heap"
	"slices"
	"time"

	"repro/internal/pbs"
)

// The priority order (DESIGN.md §6): with QueueTimeWeight ≥ 0 the jobs
// of one owner and base priority are in placement order in Seq order, so
// merging the groups' heads yields the stable sort, one job at a time.

// rankedJob is one entry of a sorted priority order (the partitioned
// cycle): a job's position in the queue and the priority it was given.
type rankedJob struct {
	prio float64
	idx  int32
}

// priority scores a job of base priority base that has waited wait, of
// an owner with the given usage. The merge and the sort both score
// through here, so they compare the very same values.
func (sc *Scheduler) priority(base int, wait time.Duration, usage float64) float64 {
	return float64(base) + sc.params.QueueTimeWeight*wait.Seconds() - sc.params.FairshareWeight*usage
}

// byPriority orders higher priorities first.
func byPriority(a, b rankedJob) int { return cmp.Compare(b.prio, a.prio) }

// byPriorityThenIndex breaks byPriority's ties by queue position.
func byPriorityThenIndex(a, b rankedJob) int {
	return cmp.Or(byPriority(a, b), cmp.Compare(a.idx, b.idx))
}

// sortByPriority puts jobs in placement order: priority first, ties in
// the order given (queue position).
func sortByPriority(jobs []rankedJob) { slices.SortStableFunc(jobs, byPriority) }

// heads is a heap of the groups' next jobs (the mirror's JobGroups),
// the merge's next at index 0. A head scores its job with the owner's
// usage as the cycle began: a placement raises its owner's usage, but
// not the priorities of its own cycle.
type heads []head

type head struct {
	prio  float64
	seq   int
	g     *pbs.JobGroup
	next  int // the merge has taken g.Jobs[:next]
	usage float64
}

func (h heads) Len() int { return len(h) }
func (h heads) Less(a, b int) bool {
	return cmp.Or(cmp.Compare(h[b].prio, h[a].prio), cmp.Compare(h[a].seq, h[b].seq)) < 0
}
func (h heads) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *heads) Push(x any)   { *h = append(*h, x.(head)) }
func (h *heads) Pop() (x any) { *h, x = (*h)[:len(*h)-1], (*h)[len(*h)-1]; return x }

// score rates the head's job at virtual time now.
func (sc *Scheduler) score(h *head, now time.Duration) {
	j := h.g.Jobs[h.next]
	h.prio, h.seq = sc.priority(h.g.Priority, now-j.SubmittedAt, h.usage), j.Seq
}

// startOrder begins the cycle's merge at virtual time now.
func (sc *Scheduler) startOrder(now time.Duration) {
	sc.heads = sc.heads[:0]
	sc.mu.Lock()
	for _, g := range sc.view.Groups {
		if len(g.Jobs) > 0 {
			sc.heads = append(sc.heads, head{g: g, usage: sc.usage[g.Owner]})
			sc.score(&sc.heads[len(sc.heads)-1], now)
		}
	}
	sc.mu.Unlock()
	heap.Init(&sc.heads)
}

// nextJob takes the merge's next job (nil once there is none).
func (sc *Scheduler) nextJob(now time.Duration) *pbs.MirrorJob {
	if len(sc.heads) == 0 {
		return nil
	}
	h := &sc.heads[0]
	j := h.g.Jobs[h.next]
	if h.next++; h.next < len(h.g.Jobs) {
		sc.score(h, now)
	} else { // the group is done: its slot takes the last head (Pop would box it)
		*h, sc.heads = sc.heads[len(sc.heads)-1], sc.heads[:len(sc.heads)-1]
	}
	heap.Fix(&sc.heads, 0)
	return j
}
