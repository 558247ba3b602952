package sim

import "time"

// event is what a pending event does: wake the parked worker w, or run
// a callback, fn or afn(arg). The afn/arg form lets hot callers (netsim
// message delivery) schedule work without allocating a closure: afn is
// a long-lived package-level function and arg a pooled pointer. A wake
// with gen 0 ends a sleep's step; one with gen > 0 is the deadline of
// w's gate wait number gen (see Gate.WaitTimeout).
type event struct {
	w   *worker
	gen uint64
	fn  func()
	afn func(any)
	arg any
}

// key orders a pending event: by instant, then by seq (the FIFO
// tie-break among events at one instant). slot is the event's place in
// the queue's slab. A key holds no pointer, so sifting one costs no
// write barrier.
type key struct {
	at   time.Duration
	seq  uint64
	slot int
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue orders pending events by (at, seq). The keys sit in a
// 4-ary min-heap with a same-instant "lane" beside it; the events sit in
// a slab whose slots are reused through a free list. Consecutive pushes
// at one virtual instant — scheduler cycles fanning out wakes, daemons
// all due at the same tick — land in the lane with an O(1) append
// instead of a heap sift. The heap is 4-ary rather than binary because
// dispatch is pop-dominated: halving the tree depth cuts sift-down swaps.
//
// Invariants: lane keys all have at == laneAt and ascending seq (pushes
// carry a globally increasing seq). The heap may hold keys at laneAt
// only when they were pushed while the lane held a different instant;
// popBatch merges the two sources by seq so release order is exactly
// the order events were scheduled.
type eventQueue struct {
	heap   []key
	lane   []key
	laneAt time.Duration
	slab   []event
	free   []int // slab slots no pending event holds
}

func (q *eventQueue) len() int { return len(q.heap) + len(q.lane) }

// nextAt reports the earliest pending instant. Callers must ensure the
// queue is non-empty.
func (q *eventQueue) nextAt() time.Duration {
	if len(q.lane) == 0 {
		return q.heap[0].at
	}
	if len(q.heap) == 0 || q.laneAt <= q.heap[0].at {
		return q.laneAt
	}
	return q.heap[0].at
}

// push queues ev at (at, seq).
func (q *eventQueue) push(at time.Duration, seq uint64, ev event) {
	k := key{at: at, seq: seq, slot: len(q.slab)}
	if n := len(q.free); n > 0 {
		k.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[k.slot] = ev
	} else {
		q.slab = append(q.slab, ev)
	}
	switch {
	case len(q.lane) == 0:
		q.laneAt = at
		fallthrough
	case at == q.laneAt:
		q.lane = append(q.lane, k)
	default:
		q.heapPush(k)
	}
}

// popBatch removes every event due at the earliest pending instant and
// appends them to dst in seq (FIFO) order. Each event's slot is cleared
// as it is copied out, so the queue never pins a spent worker or
// callback.
func (q *eventQueue) popBatch(dst []event) []event {
	t := q.nextAt()
	li := 0
	if q.laneAt != t {
		li = len(q.lane)
	}
	// Heap pops at a single instant come out in ascending seq, and the
	// lane is already in ascending seq, so this is a two-way sorted merge.
	for len(q.heap) > 0 && q.heap[0].at == t {
		hseq := q.heap[0].seq
		for ; li < len(q.lane) && q.lane[li].seq < hseq; li++ {
			dst = q.take(dst, q.lane[li])
		}
		dst = q.take(dst, q.heapPop())
	}
	if q.laneAt == t {
		for ; li < len(q.lane); li++ {
			dst = q.take(dst, q.lane[li])
		}
		q.lane = q.lane[:0]
	}
	return dst
}

// take appends k's event to dst and frees its slot.
func (q *eventQueue) take(dst []event, k key) []event {
	dst = append(dst, q.slab[k.slot])
	q.slab[k.slot] = event{}
	q.free = append(q.free, k.slot)
	return dst
}

// reset empties the queue, keeping its storage.
func (q *eventQueue) reset() {
	clear(q.slab)
	q.heap, q.lane, q.slab, q.free = q.heap[:0], q.lane[:0], q.slab[:0], q.free[:0]
}

func (q *eventQueue) heapPush(k key) {
	h := append(q.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

func (q *eventQueue) heapPop() key {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	for i := 0; ; {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].less(h[smallest]) {
				smallest = c
			}
		}
		if !h[smallest].less(h[i]) {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}
