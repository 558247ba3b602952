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
// the queue's slab, line the delay line it sits on (0: none). A key
// holds no pointer, so sifting one costs no write barrier.
type key struct {
	at         time.Duration
	seq        uint64
	slot, line int32
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue orders pending events by (at, seq). The events sit in a
// slab whose slots are reused through a free list, their keys in a
// 4-ary min-heap (dispatch is pop-dominated, and a shallower tree cuts
// sift-down swaps) or on a delay line: a FIFO of the keys pushed with
// one delay (at − now). The clock never goes back, so a line's keys come
// due in push order and only its head sits in the heap. Most pushes are
// a few recurring delays — a message hop, a server step, a same-instant
// wake — and cost an O(1) append.
//
// The lines are a fixed table indexed by a hash of the delay. A line
// admits only a delay that recurred: one with pending keys takes its own
// delay, an empty one the last delay that hashed to it. Any other push
// goes to the heap. The order never depends on where a key sits: the
// heap holds every pending key or its line's head.
type eventQueue struct {
	heap  []key
	lines [65]delayLine // lines[0] stays empty: a key on no line
	slab  []event
	free  []int32 // slab slots no pending event holds
}

// delayLine is a ring of the pending keys pushed with delay d, oldest at
// head; its length is a power of two.
type delayLine struct {
	d       time.Duration
	keys    []key
	head, n int
}

func (q *eventQueue) len() int { return len(q.slab) - len(q.free) }

// nextAt reports the earliest pending instant. Callers must ensure the
// queue is non-empty.
func (q *eventQueue) nextAt() time.Duration { return q.heap[0].at }

// push queues ev d after now, at (now+d, seq).
func (q *eventQueue) push(now, d time.Duration, seq uint64, ev event) {
	k := key{at: now + d, seq: seq, slot: int32(len(q.slab))}
	if n := len(q.free); n > 0 {
		k.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[k.slot] = ev
	} else {
		q.slab = append(q.slab, ev)
	}
	k.line = lineOf(d)
	l := &q.lines[k.line]
	if l.d != d {
		if l.n == 0 {
			l.d = d
		}
		k.line = 0
		q.heapPush(k)
		return
	}
	if l.n == len(l.keys) { // full: double the ring, oldest first
		keys := make([]key, max(8, 2*l.n))
		copy(keys[copy(keys, l.keys[l.head:]):], l.keys[:l.head])
		l.keys, l.head = keys, 0
	}
	l.keys[(l.head+l.n)&(len(l.keys)-1)] = k
	if l.n++; l.n == 1 {
		q.heapPush(k)
	}
}

// lineOf is the line a delay hashes to, 1 to 64. Delays are round
// numbers, so it mixes (splitmix64's finalizer) before it takes the top
// bits: a plain multiplicative hash put 1 ms, 4 s and 8 s on one line.
func lineOf(d time.Duration) int32 {
	x := (uint64(d) ^ uint64(d)>>30) * 0xbf58476d1ce4e5b9
	return 1 + int32((x^x>>27)*0x94d049bb133111eb>>58)
}

// popBatch removes every event due at the earliest pending instant and
// appends them to dst in seq (FIFO) order. Each event's slot is cleared
// as it is copied out, so the queue never pins a spent worker or
// callback.
func (q *eventQueue) popBatch(dst []event) []event {
	t := q.heap[0].at
	for len(q.heap) > 0 && q.heap[0].at == t {
		k := q.heap[0]
		if l := &q.lines[k.line]; l.n > 1 { // the line's next key takes the top
			l.head, l.n = (l.head+1)&(len(l.keys)-1), l.n-1
			q.heap[0] = l.keys[l.head]
		} else {
			l.head, l.n = 0, 0
			last := len(q.heap) - 1
			q.heap[0], q.heap = q.heap[last], q.heap[:last]
		}
		q.siftDown()
		dst = append(dst, q.slab[k.slot])
		q.slab[k.slot] = event{}
		q.free = append(q.free, k.slot)
	}
	return dst
}

// reset empties the queue, keeping its storage.
func (q *eventQueue) reset() {
	clear(q.slab)
	for i := range q.lines {
		q.lines[i].head, q.lines[i].n = 0, 0
	}
	q.heap, q.slab, q.free = q.heap[:0], q.slab[:0], q.free[:0]
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

// siftDown restores the heap order below a new top.
func (q *eventQueue) siftDown() {
	h := q.heap
	n := len(h)
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
}
