package sim

import "time"

// event is a scheduled occurrence: a wake of a parked actor
// (wake != nil; for a parked SleepSteps arg holds its *stepRun, for
// which the controller may take more steps instead of waking it), a
// controller callback (fn != nil), or an argument-carrying controller
// callback (afn != nil). The afn/arg form lets hot
// callers (netsim message delivery) schedule work without allocating a
// fresh closure per event: afn is a long-lived package-level function
// and arg is a pooled pointer, so the event itself carries no heap
// garbage.
type event struct {
	at   time.Duration
	seq  uint64 // FIFO tie-break among events at the same instant
	wake chan struct{}
	fn   func()
	afn  func(any)
	arg  any
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue orders pending events by (at, seq). It is a 4-ary min-heap
// with a same-instant "lane" bolted on: consecutive pushes at one
// virtual instant — scheduler cycles fanning out wakes, daemons all due
// at the same tick — land in the lane with an O(1) append instead of a
// heap sift, and popBatch drains the lane with a single copy. The heap
// is 4-ary rather than binary because dispatch is pop-dominated: halving
// the tree depth cuts sift-down swaps on the hot path, and the wider
// node still fits in a cache line pair.
//
// Invariants: lane entries all have at == laneAt and are in ascending
// seq order (pushes carry a globally increasing seq). The heap may hold
// events at laneAt only when they were pushed while the lane held a
// different instant; popBatch merges the two sources by seq so release
// order is exactly the order events were scheduled.
type eventQueue struct {
	heap   []event
	lane   []event
	laneAt time.Duration
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

func (q *eventQueue) push(ev event) {
	if len(q.lane) > 0 && ev.at == q.laneAt {
		q.lane = append(q.lane, ev)
		return
	}
	if len(q.lane) == 0 {
		q.laneAt = ev.at
		q.lane = append(q.lane, ev)
		return
	}
	q.heapPush(ev)
}

// popBatch removes every event due at the earliest pending instant and
// appends them to dst in seq (FIFO) order. Drained storage is zeroed so
// the queue never pins dead wake channels or callback closures.
func (q *eventQueue) popBatch(dst []event) []event {
	t := q.nextAt()
	laneDue := len(q.lane) > 0 && q.laneAt == t
	heapDue := len(q.heap) > 0 && q.heap[0].at == t
	switch {
	case laneDue && !heapDue:
		dst = append(dst, q.lane...)
		clear(q.lane)
		q.lane = q.lane[:0]
	case heapDue && !laneDue:
		for len(q.heap) > 0 && q.heap[0].at == t {
			dst = append(dst, q.heapPop())
		}
	default:
		// Both sources hold events at t: merge by seq. Heap pops at a
		// single instant come out in ascending seq, and the lane is
		// already in ascending seq, so this is a two-way sorted merge.
		li := 0
		for len(q.heap) > 0 && q.heap[0].at == t {
			hseq := q.heap[0].seq
			for li < len(q.lane) && q.lane[li].seq < hseq {
				dst = append(dst, q.lane[li])
				li++
			}
			dst = append(dst, q.heapPop())
		}
		dst = append(dst, q.lane[li:]...)
		clear(q.lane)
		q.lane = q.lane[:0]
	}
	return dst
}

func (q *eventQueue) heapPush(ev event) {
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

func (q *eventQueue) heapPop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	q.heap = h[:n]
	q.heapSiftDown(0)
	return top
}

func (q *eventQueue) heapSiftDown(i int) {
	h := q.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		smallest := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[smallest]) {
				smallest = c
			}
		}
		if !eventLess(h[smallest], h[i]) {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
