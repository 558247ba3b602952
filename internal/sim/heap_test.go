package sim

import (
	"slices"
	"testing"
	"time"
)

// pushTagged queues an event at (at, seq) that carries its seq in gen,
// so a popped batch can be checked against the pushes.
func pushTagged(q *eventQueue, at time.Duration, seq uint64) {
	q.push(at, seq, event{gen: seq})
}

// tags lists the seqs a batch carries.
func tags(batch []event) []uint64 {
	var seqs []uint64
	for _, ev := range batch {
		seqs = append(seqs, ev.gen)
	}
	return seqs
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	times := []time.Duration{5, 1, 3, 2, 4, 1, 5, 0}
	for i, at := range times {
		pushTagged(&q, at, uint64(i))
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

// TestEventQueueLaneHeapMerge drives the queue into the state where the
// heap and the same-instant lane both hold events at one instant — the
// lane held a different instant when the first event was pushed — and
// checks the batch comes out in global seq order.
func TestEventQueueLaneHeapMerge(t *testing.T) {
	var q eventQueue
	pushTagged(&q, 1, 1) // lane starts at t=1
	pushTagged(&q, 5, 2) // different instant: heap
	pushTagged(&q, 5, 3) // still not laneAt: heap
	// The first batch drains t=1.
	if got := tags(q.popBatch(nil)); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("first batch %v, want [1]", got)
	}
	pushTagged(&q, 5, 4) // lane restarts at t=5
	pushTagged(&q, 5, 5) // lane append
	pushTagged(&q, 7, 6) // heap
	if got := tags(q.popBatch(nil)); !slices.Equal(got, []uint64{2, 3, 4, 5}) {
		t.Fatalf("merged t=5 batch %v, want [2 3 4 5]", got)
	}
	if got := tags(q.popBatch(nil)); !slices.Equal(got, []uint64{6}) {
		t.Fatalf("final batch %v, want [6]", got)
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}

// Random pushes — runs at one instant, instants the lane does not hold,
// the present and the future, pops in between — against a reference
// list: every batch is the earliest pending instant's events in seq
// order. Drained, the queue's slab holds no worker or callback, and
// every slot is free for reuse.
func TestEventQueueProperty(t *testing.T) {
	w := &worker{}
	fn, afn := func() {}, func(any) {}
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
			at := now + time.Duration(rng.Intn(6))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				seq++
				ev := event{gen: seq}
				switch rng.Intn(3) {
				case 0:
					ev.w = w
				case 1:
					ev.fn = fn
				default:
					ev.afn, ev.arg = afn, w
				}
				q.push(at, seq, ev)
				ref = append(ref, key{at: at, seq: seq})
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: %d events left in a drained queue", seed, q.len())
		}
		for i, ev := range q.slab {
			if ev.w != nil || ev.fn != nil || ev.afn != nil || ev.arg != nil {
				t.Fatalf("seed %d: a drained queue still holds slot %d: %+v", seed, i, ev)
			}
		}
		if len(q.free) != len(q.slab) {
			t.Fatalf("seed %d: %d of %d slots free in a drained queue", seed, len(q.free), len(q.slab))
		}
	}
}
