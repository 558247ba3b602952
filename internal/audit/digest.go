package audit

import (
	"math/bits"
	"sort"
)

// Digest accumulates a deterministic 64-bit FNV-1a hash over a
// component's state. Providers must feed it in a deterministic order
// — sorted map keys, never wall-clock values. The daclint suite holds
// both: maporder flags a map range that reaches the Digest's Write*
// methods without a sort, and walltime forbids host-clock reads in
// every package outside cmd/.
// Field writes are length-delimited so concatenations cannot collide
// ("ab","c" vs "a","bc").
type Digest struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// WriteString hashes s followed by its length as a delimiter.
func (d *Digest) WriteString(s string) {
	h := d.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	d.h = fnvUint(h, uint64(len(s)))
}

// WriteUint hashes v as eight little-endian bytes.
func (d *Digest) WriteUint(v uint64) { d.h = fnvUint(d.h, v) }

// fnvUint folds the eight little-endian bytes of v into the FNV-1a
// state h. The writers keep the state in a local and store it once.
// A zero byte only multiplies the state by the prime, so the k zero
// bytes above v's highest set one fold into one multiply by prime^k:
// a small integer costs one multiply per significant byte and one more.
func fnvUint(h, v uint64) uint64 {
	n := 8 - bits.LeadingZeros64(v)/8
	for i := 0; i < n; i++ {
		h = (h ^ (v>>(8*i))&0xff) * fnvPrime64
	}
	return h * fnvPrimePow[8-n]
}

// fnvPrimePow[k] is fnvPrime64^k, modulo 2^64.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// WriteInt hashes v as eight little-endian bytes.
func (d *Digest) WriteInt(v int64) { d.WriteUint(uint64(v)) }

// WriteBool hashes a single 0/1 byte.
func (d *Digest) WriteBool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	d.h = (d.h ^ b) * fnvPrime64
}

// Sum returns the accumulated hash.
func (d *Digest) Sum() uint64 { return d.h }

// RegisterDigest installs a named digest provider for a component.
// The provider runs at every capture round with a fresh Digest; it
// must produce identical sums for identical component state (the
// basis of the cross-parallelism and cross-mode identity gates).
// Registering an existing name replaces the provider.
func (r *Recorder) RegisterDigest(comp, name string, fn func(*Digest)) {
	if r == nil || fn == nil {
		return
	}
	r.sources[name] = digestSource{comp: comp, name: name, fn: fn}
	r.sorted = nil // the next round sorts again
}

// CaptureDigests runs every registered provider in sorted name order
// and records one KindDigest event per provider: Subj is the digest
// name, A the hash sum, B the capture round. It returns the round
// index. The name order is sorted once after each RegisterDigest and
// kept; one Digest serves the round, reset before each provider.
func (r *Recorder) CaptureDigests() int64 {
	if r == nil {
		return 0
	}
	round := r.captures
	r.captures++
	if r.sorted == nil {
		r.sorted = make([]digestSource, 0, len(r.sources))
		for _, src := range r.sources {
			r.sorted = append(r.sorted, src)
		}
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].name < r.sorted[j].name })
	}
	d := new(Digest)
	for _, src := range r.sorted {
		d.h = fnvOffset64
		src.fn(d)
		r.Record(KindDigest, src.comp, src.name, "digest", int64(d.Sum()), round)
	}
	return round
}

// DigestCaptures reports how many capture rounds have run.
func (r *Recorder) DigestCaptures() int64 {
	if r == nil {
		return 0
	}
	return r.captures
}
