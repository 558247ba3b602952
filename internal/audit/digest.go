package audit

import "sort"

// Digest accumulates a deterministic 64-bit FNV-1a hash over a
// component's state. Providers must feed it in a deterministic order
// — sorted map keys, never wall-clock values — which the digestdet
// daclint analyzer enforces for every function that takes a *Digest.
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
func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v>>(8*i))&0xff) * fnvPrime64
	}
	return h
}

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
	r.srcMu.Lock()
	r.sources[name] = digestSource{comp: comp, name: name, fn: fn}
	r.sorted = nil // the next round sorts again
	r.srcMu.Unlock()
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
	round := r.captures.Add(1) - 1
	r.srcMu.Lock()
	if r.sorted == nil {
		// A fresh slice: a round still walking the old one keeps it.
		r.sorted = make([]digestSource, 0, len(r.sources))
		for _, src := range r.sources {
			r.sorted = append(r.sorted, src)
		}
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].name < r.sorted[j].name })
	}
	srcs := r.sorted
	r.srcMu.Unlock()
	d := new(Digest)
	for _, src := range srcs {
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
	return r.captures.Load()
}
