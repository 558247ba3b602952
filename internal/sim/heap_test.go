package sim

import (
	"slices"
	"testing"
	"time"
)

// pushTagged queues an event d after now that carries its seq in gen,
// so a popped batch can be checked against the pushes.
func pushTagged(q *eventQueue, now, d time.Duration, seq uint64) {
	q.push(now, d, seq, event{gen: seq})
}

// tags lists the seqs a batch carries.
func tags(batch []event) []uint64 {
	var seqs []uint64
	for _, ev := range batch {
		seqs = append(seqs, ev.gen)
	}
	return seqs
}

// onLines counts the keys the queue holds on its delay lines.
func onLines(q *eventQueue) int {
	n := 0
	for _, l := range q.lines {
		n += l.n
	}
	return n
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	times := []time.Duration{5, 1, 3, 2, 4, 1, 5, 0}
	for i, at := range times {
		pushTagged(&q, 0, at, uint64(i))
	}
	var got []uint64
	for q.len() > 0 {
		at := q.nextAt()
		for _, seq := range tags(q.popBatch(nil)) {
			if times[seq] != at {
				t.Fatalf("batch at %v contains event at %v", at, times[seq])
			}
			got = append(got, seq)
		}
	}
	// By instant, and FIFO among equal instants: seq 1 before 5 at t=1,
	// seq 0 before 6 at t=5.
	if want := []uint64{7, 1, 5, 3, 2, 4, 0, 6}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestEventQueueLineHeapMerge drives the queue into the state where one
// instant's events sit on two delay lines and in the heap — pushed from
// two instants, each delay's first push in the heap and its next on the
// line — and checks the batch comes out in global seq order.
func TestEventQueueLineHeapMerge(t *testing.T) {
	if lineOf(1) == lineOf(5) || lineOf(5) == lineOf(6) || lineOf(1) == lineOf(6) {
		t.Fatal("delays 1, 5 and 6 share a line: pick others")
	}
	var q eventQueue
	pushTagged(&q, 0, 6, 1) // delay 6 first seen: heap
	pushTagged(&q, 0, 6, 2) // recurred: line 6
	pushTagged(&q, 0, 1, 3) // heap
	pushTagged(&q, 0, 1, 4) // line 1
	if got := tags(q.popBatch(nil)); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("first batch %v, want [3 4]", got)
	}
	pushTagged(&q, 1, 5, 5) // t=6 from t=1: heap
	pushTagged(&q, 1, 5, 6) // line 5
	pushTagged(&q, 1, 6, 7) // line 6, behind seq 2, at t=7
	if got, want := onLines(&q), 3; got != want {
		t.Fatalf("%d keys on lines, want %d (seqs 2, 6 and 7)", got, want)
	}
	if got := tags(q.popBatch(nil)); !slices.Equal(got, []uint64{1, 2, 5, 6}) {
		t.Fatalf("merged t=6 batch %v, want [1 2 5 6]", got)
	}
	if got := tags(q.popBatch(nil)); !slices.Equal(got, []uint64{7}) {
		t.Fatalf("final batch %v, want [7]", got)
	}
	if q.len() != 0 || onLines(&q) != 0 || len(q.heap) != 0 {
		t.Fatalf("queue not drained: %d left, %d on lines, %d in the heap", q.len(), onLines(&q), len(q.heap))
	}
}

// TestEventQueueLineStaysBounded pushes 10⁵ events onto one line that
// never drains: the line's storage stays within twice its peak pending
// length instead of growing with the run, and the heap holds only its
// head.
func TestEventQueueLineStaysBounded(t *testing.T) {
	const d, total = 50, 100_000
	var q eventQueue
	var seq uint64
	peak := 0
	for now := time.Duration(0); seq < total; now++ {
		seq++
		pushTagged(&q, now, d, seq)
		peak = max(peak, q.len())
		if q.nextAt() == now {
			if got := tags(q.popBatch(nil)); len(got) != 1 || got[0] != seq-d {
				t.Fatalf("at %v popped %v, want [%d]", now, got, seq-d)
			}
		}
		if now > d && len(q.heap) != 1 { // the first push, a delay not yet seen, went to the heap
			t.Fatalf("at %v the heap holds %d keys, want the line's head", now, len(q.heap))
		}
	}
	l := q.lines[lineOf(d)]
	if l.n == 0 || len(l.keys) > 2*peak {
		t.Fatalf("line holds %d keys in storage for %d, peak pending %d", l.n, len(l.keys), peak)
	}
}

// Random pushes — delays drawn from a few recurring values (two of
// which share a line) and from a wide range, now advancing, pops in
// between — against a reference list: every batch is the earliest
// pending instant's events in seq order. Over the seeds, pushes join
// lines, collide with a line held by another delay and fall back to the
// heap. Drained, the queue's slab holds no worker or callback, and
// every slot is free for reuse.
func TestEventQueueProperty(t *testing.T) {
	w := &worker{}
	afn := func(any) {}
	recurring := []time.Duration{0, 1, 2, 3, 200, 1000}
	for d := time.Duration(4); ; d++ { // a delay that shares delay 3's line
		if lineOf(d) == lineOf(3) {
			recurring = append(recurring, d)
			break
		}
	}
	var joined, collided, fellBack int
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		var q eventQueue
		var ref []key // what is pending, as (at, seq)
		var now time.Duration
		var seq uint64
		pop := func() {
			slices.SortFunc(ref, func(a, b key) int {
				if a.less(b) {
					return -1
				}
				return 1
			})
			n := 0
			for n < len(ref) && ref[n].at == ref[0].at {
				n++
			}
			if at := q.nextAt(); at != ref[0].at {
				t.Fatalf("seed %d: next instant %v, want %v", seed, at, ref[0].at)
			}
			got := tags(q.popBatch(nil))
			var want []uint64
			for _, k := range ref[:n] {
				want = append(want, k.seq)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: batch at %v popped %v, want %v", seed, ref[0].at, got, want)
			}
			now, ref = ref[0].at, ref[n:]
		}
		for step := 0; step < 300; step++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			d := recurring[rng.Intn(len(recurring))]
			if rng.Intn(3) == 0 {
				d = time.Duration(rng.Intn(1 << 20))
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				seq++
				ev := event{gen: seq}
				if rng.Intn(2) == 0 {
					ev.w = w
				} else {
					ev.afn, ev.arg = afn, w
				}
				l, before := q.lines[lineOf(d)], onLines(&q)
				q.push(now, d, seq, ev)
				switch {
				case onLines(&q) > before:
					joined++
				case l.n > 0:
					collided++
				default:
					fellBack++
				}
				ref = append(ref, key{at: now + d, seq: seq})
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if q.len() != 0 || onLines(&q) != 0 {
			t.Fatalf("seed %d: %d events, %d on lines left in a drained queue", seed, q.len(), onLines(&q))
		}
		for i, ev := range q.slab {
			if ev.w != nil || ev.afn != nil || ev.arg != nil {
				t.Fatalf("seed %d: a drained queue still holds slot %d: %+v", seed, i, ev)
			}
		}
		if len(q.free) != len(q.slab) {
			t.Fatalf("seed %d: %d of %d slots free in a drained queue", seed, len(q.free), len(q.slab))
		}
	}
	if joined == 0 || collided == 0 || fellBack == 0 {
		t.Fatalf("pushes joined a line %d times, collided %d, fell back %d: every path must be taken", joined, collided, fellBack)
	}
	t.Logf("pushes: %d joined a line, %d collided, %d fell back", joined, collided, fellBack)
}
