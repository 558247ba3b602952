// Package telemetry is the deterministic live-metrics layer of the
// simulator: streaming histograms, typed instruments, virtual-time
// scrapes, and SLO evaluation.
//
// Where internal/metrics buffers every observation for post-hoc
// statistics, telemetry maintains running state that can be read *in
// the middle of a run* — the substrate for windowed p50/p99/p999
// series, occupancy ratios, and first-breach SLO timestamps. Every
// piece is virtual-time native (durations come from the sim clock,
// never the wall clock) and deterministic: identical runs produce
// byte-identical scrape files at every parallelism level.
//
// The layer is organized as
//
//   - Histogram: a mergeable fixed-bucket log-scale streaming
//     histogram (this file),
//   - Registry + Counter/Gauge/Occupancy: typed named instruments
//     (registry.go),
//   - Scraper: periodic virtual-time scrapes into windowed series
//     (scrape.go),
//   - Objective/Evaluate: SLO compliance with first-breach virtual
//     timestamps (slo.go),
//   - WriteProm: the Prometheus text exposition (export.go); scrape
//     windows travel as "scrape" lines of a capture file
//     (internal/capture).
//
// Like the tracer, every instrument is nil-safe: a nil *Registry
// hands out nil instruments whose methods are no-ops, so packages
// instrument unconditionally and pay nothing when telemetry is off.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// Bucket geometry: values are integer nanoseconds. The first
// subBucketCount buckets are exact (one bucket per nanosecond); above
// that each power-of-two octave is split into subBucketCount linear
// sub-buckets, so the relative bucket width — and therefore the worst
// quantile error — is bounded by 2^-subBucketBits (3.125%). This is
// the HDR-histogram layout with fixed precision, which keeps Record
// at O(1) with zero allocation and makes Merge a plain integer
// bucket-count addition (associative and commutative by
// construction).
const (
	subBucketBits  = 5
	subBucketCount = 1 << subBucketBits
	// Octave exponents run from subBucketBits to 62 (int64 range), so
	// the table covers every non-negative int64 nanosecond value.
	numBuckets = subBucketCount * (64 - subBucketBits)
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBucketCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBucketBits
	return subBucketCount*(e-subBucketBits) + int(v>>uint(e-subBucketBits))
}

// bucketHigh returns the largest value the bucket holds — the
// representative Quantile reports, so quantiles never under-report.
func bucketHigh(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	q := i / subBucketCount // octave + 1
	m := int64(i - subBucketCount*(q-1))
	width := int64(1) << uint(q-1)
	return m<<uint(q-1) + width - 1
}

// Histogram is a streaming log-scale histogram over integer-nanosecond
// durations. Record is O(1) and allocation-free; Merge adds bucket
// counts, so merging is associative and commutative and merged
// quantiles equal the quantiles of the union stream. Quantiles are
// deterministic with bounded relative error (the bucket width,
// ≤ 3.125%); Count, Sum, Min, and Max are exact.
//
// A nil *Histogram is a no-op sink: Record does nothing and every
// accessor returns zero. All methods are safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [numBuckets]int64
	count  int64
	sum    int64 // nanoseconds; exact
	min    int64 // valid when count > 0
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one duration observation. Negative durations clamp to
// zero (virtual-time subtraction can legitimately produce zero-width
// intervals, never truly negative ones).
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the exact sum of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.sum)
}

// Mean reports the exact mean observation (zero when empty).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min reports the exact smallest observation (zero when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max reports the exact largest observation (zero when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Quantile returns the q-quantile (q in [0,1]; 0.99 is p99) as the
// upper bound of the bucket holding the ceil(q·count)-th smallest
// observation — deterministic, never under-reporting, within one
// bucket width (≤ 3.125% relative) of the true order statistic. It
// returns zero when empty; out-of-range q clamps.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileLocked(&h.counts, h.count, q)
}

func quantileLocked(counts *[numBuckets]int64, count int64, q float64) time.Duration {
	if count == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			return time.Duration(bucketHigh(i))
		}
	}
	return time.Duration(bucketHigh(numBuckets - 1)) // unreachable: cum == count
}

// Merge adds every observation of o into h, leaving o unchanged.
// Merge is associative and commutative: any merge order over any
// partition of a stream yields byte-identical bucket counts, which is
// what lets per-trial histograms combine into figure-level ones
// without ordering the trials.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	// Lock ordering: snapshot o first, then add under h.mu, so Merge
	// never holds two histogram locks at once.
	snap := o.Clone()
	if snap.count == 0 {
		return
	}
	h.mu.Lock()
	for i, c := range snap.counts {
		h.counts[i] += c
	}
	if h.count == 0 || snap.min < h.min {
		h.min = snap.min
	}
	if snap.max > h.max {
		h.max = snap.max
	}
	h.count += snap.count
	h.sum += snap.sum
	h.mu.Unlock()
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{}
	if h == nil {
		return c
	}
	h.mu.Lock()
	c.counts = h.counts
	c.count = h.count
	c.sum = h.sum
	c.min = h.min
	c.max = h.max
	h.mu.Unlock()
	return c
}

// Reset empties the histogram, keeping its storage.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.counts = [numBuckets]int64{}
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.mu.Unlock()
}

// Equal reports whether two histograms hold identical state — the
// bucket counts and exact aggregates all match. Used by the merge
// property tests; nil equals nil and the empty histogram.
func (h *Histogram) Equal(o *Histogram) bool {
	a, b := h.Clone(), o.Clone()
	return a.counts == b.counts && a.count == b.count && a.sum == b.sum &&
		a.min == b.min && a.max == b.max
}

// windowInto writes the delta h−prev into out (bucket-wise count
// subtraction) and copies h into prev for the next window. The delta's
// min/max are bucket bounds, not exact, since cumulative min/max do
// not subtract; quantiles and mean over the delta remain exact at
// bucket precision. Scraper-internal.
func (h *Histogram) windowInto(prev, out *Histogram) {
	if h == nil {
		return
	}
	h.mu.Lock()
	out.count = h.count - prev.count
	out.sum = h.sum - prev.sum
	out.min, out.max = 0, 0
	first := true
	for i := range h.counts {
		d := h.counts[i] - prev.counts[i]
		out.counts[i] = d
		if d > 0 {
			if first {
				out.min = bucketHigh(i)
				first = false
			}
			out.max = bucketHigh(i)
		}
	}
	prev.counts = h.counts
	prev.count = h.count
	prev.sum = h.sum
	prev.min = h.min
	prev.max = h.max
	h.mu.Unlock()
}
