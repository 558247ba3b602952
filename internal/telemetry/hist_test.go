package telemetry

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value maps into a bucket whose range contains it, and
	// bucket bounds are monotone.
	values := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<62 + 7}
	for _, v := range values {
		i := bucketIndex(v)
		hi := bucketHigh(i)
		if v > hi {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, hi)
		}
		if i > 0 && bucketHigh(i-1) >= v {
			t.Errorf("value %d fits a lower bucket: high(%d)=%d", v, i-1, bucketHigh(i-1))
		}
	}
	for i := 1; i < numBuckets; i++ {
		if bucketHigh(i) <= bucketHigh(i-1) {
			t.Fatalf("bucketHigh not monotone at %d: %d <= %d", i, bucketHigh(i), bucketHigh(i-1))
		}
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	h := NewHistogram()
	ds := []time.Duration{5 * time.Millisecond, 17 * time.Microsecond, 3 * time.Second, 0, -time.Second}
	var sum time.Duration
	for _, d := range ds {
		h.Record(d)
		if d < 0 {
			d = 0
		}
		sum += d
	}
	if h.Count() != int64(len(ds)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(ds))
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want 0 (negative clamps)", h.Min())
	}
	if h.Max() != 3*time.Second {
		t.Fatalf("Max = %v, want 3s", h.Max())
	}
	if h.Mean() != sum/time.Duration(len(ds)) {
		t.Fatalf("Mean = %v, want %v", h.Mean(), sum/time.Duration(len(ds)))
	}
}

func TestQuantilePrecision(t *testing.T) {
	// Quantiles must sit within one bucket (≤ 2^-subBucketBits
	// relative) above the true order statistic, and never below it.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var raw []int64
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(int64(10 * time.Second))
		raw = append(raw, v)
		h.Record(time.Duration(v))
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(q*float64(len(raw))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		truth := raw[rank]
		got := int64(h.Quantile(q))
		if got < truth {
			t.Errorf("Quantile(%v) = %d under-reports true %d", q, got, truth)
		}
		// Upper bound: the reported bucket top is within one bucket
		// width of the true value's bucket top.
		maxOK := bucketHigh(bucketIndex(truth) + 1)
		if got > maxOK {
			t.Errorf("Quantile(%v) = %d too far above true %d (cap %d)", q, got, truth, maxOK)
		}
	}
	if h.Quantile(0) < time.Duration(raw[0]) {
		t.Errorf("Quantile(0) = %v below min %v", h.Quantile(0), time.Duration(raw[0]))
	}
}

func TestQuantileDeterministic(t *testing.T) {
	build := func() *Histogram {
		h := NewHistogram()
		for i := 0; i < 1000; i++ {
			h.Record(time.Duration(i*i) * time.Microsecond)
		}
		return h
	}
	a, b := build(), build()
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 0.999, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("Quantile(%v) not deterministic: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if !same(a, b) {
		t.Fatal("identical record streams produced unequal histograms")
	}
}

// TestMergeProperties is the satellite property test: merge is
// associative and commutative at the level of exact internal state,
// and merging partitions of a stream equals observing the union.
func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int) *Histogram {
		h := NewHistogram()
		for i := 0; i < n; i++ {
			h.Record(time.Duration(rng.Int63n(int64(time.Minute))))
		}
		return h
	}
	a, b, c := mk(400), mk(177), mk(903)

	// Commutative: a+b == b+a.
	ab := *a
	ab.Merge(b)
	ba := *b
	ba.Merge(a)
	if ab != ba {
		t.Fatal("merge is not commutative")
	}

	// Associative: (a+b)+c == a+(b+c).
	abc1 := ab
	abc1.Merge(c)
	bc := *b
	bc.Merge(c)
	abc2 := *a
	abc2.Merge(&bc)
	if abc1 != abc2 {
		t.Fatal("merge is not associative")
	}

	// Union: merging partitions equals one histogram over the whole
	// stream. Replay the same seed into a single histogram.
	rng2 := rand.New(rand.NewSource(7))
	all := NewHistogram()
	for i := 0; i < 400+177+903; i++ {
		all.Record(time.Duration(rng2.Int63n(int64(time.Minute))))
	}
	if abc1 != *all {
		t.Fatal("merged partitions differ from the union stream")
	}

	// Identity: merging an empty histogram changes nothing.
	id := *a
	id.Merge(NewHistogram())
	id.Merge(nil)
	if id != *a {
		t.Fatal("empty/nil merge is not the identity")
	}
	into := NewHistogram()
	into.Merge(a)
	if *into != *a {
		t.Fatal("merging into an empty histogram is not a copy")
	}

	// Aliasing: h.Merge(h) doubles every count, the sum and the count,
	// and leaves min and max as they were.
	aa := *a
	aa.Merge(&aa)
	for i := range a.counts {
		if aa.counts[i] != 2*a.counts[i] {
			t.Fatalf("bucket %d after h.Merge(h): %d, want %d", i, aa.counts[i], 2*a.counts[i])
		}
	}
	if aa.Count() != 2*a.Count() || aa.Sum() != 2*a.Sum() || aa.Min() != a.Min() || aa.Max() != a.Max() {
		t.Fatalf("h.Merge(h): count %d sum %v min %v max %v, want %d %v %v %v",
			aa.Count(), aa.Sum(), aa.Min(), aa.Max(), 2*a.Count(), 2*a.Sum(), a.Min(), a.Max())
	}
}

func TestHistogramNilAndReset(t *testing.T) {
	var h *Histogram
	h.Record(time.Second) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accessors must return zero")
	}
	h.Merge(NewHistogram())
	if !same(h, NewHistogram()) {
		t.Fatal("nil must equal empty")
	}

	r := NewHistogram()
	r.Record(time.Millisecond)
	r.Reset()
	if !same(r, NewHistogram()) {
		t.Fatal("Reset must restore the empty state")
	}
}

// same reports whether two histograms hold identical state; nil equals
// the empty histogram.
func same(a, b *Histogram) bool {
	var empty Histogram
	if a == nil {
		a = &empty
	}
	if b == nil {
		b = &empty
	}
	return *a == *b
}
