package cfg

// The dataflow half of the package: forward bitvector gen/kill
// may-problems ("holds on some path") solved by worklist fixpoint
// iteration over a CFG. Analyzers define a Problem (per-block
// transfer, optional per-edge refinement) and read back per-block
// fact sets; replaying the transfer node-by-node inside one block
// recovers statement-level precision when a diagnostic needs it.

// Bits is a fixed-width bitvector of dataflow facts.
type Bits []uint64

// NewBits returns an all-zero vector with capacity for n facts.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether fact i is set.
func (b Bits) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Set sets fact i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears fact i.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// Equal reports whether two vectors carry the same facts.
func (b Bits) Equal(o Bits) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func union(dst, src Bits) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// Problem is one forward gen/kill may-analysis over a CFG: facts
// entering a block are the union of those leaving its predecessors,
// and Entry starts from the empty set.
type Problem struct {
	NumFacts int
	// Transfer mutates facts in place, applying the block's effect.
	// It is called many times during iteration and must be
	// deterministic and side-effect free.
	Transfer func(b *Block, facts Bits)
	// Edge, if non-nil, refines the facts flowing across the CFG
	// edge from→to. It must either return facts unchanged or return
	// a modified clone; it must not mutate its argument.
	Edge func(from, to *Block, facts Bits) Bits
}

// Result holds the fixpoint. In[i] is the fact set entering block i;
// Out[i] is after the block's transfer.
type Result struct {
	In, Out []Bits
}

// Solve iterates p over g to a fixpoint. Gen/kill transfers are
// monotone, so termination is guaranteed; a generous iteration cap
// guards against a non-monotone Transfer bug.
func Solve(g *CFG, p Problem) Result {
	n := len(g.Blocks)
	res := Result{In: make([]Bits, n), Out: make([]Bits, n)}
	for i := 0; i < n; i++ {
		res.In[i] = NewBits(p.NumFacts)
		res.Out[i] = NewBits(p.NumFacts)
	}

	// Worklist seeded with every block in index order; construction
	// order approximates reverse postorder.
	work := make([]*Block, 0, n)
	inWork := make([]bool, n)
	push := func(b *Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}

	limit := 64 * (n + 2) * (p.NumFacts + 2)
	for iter := 0; len(work) > 0 && iter < limit; iter++ {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		if b != g.Entry {
			in := NewBits(p.NumFacts)
			for _, pr := range b.Preds {
				facts := res.Out[pr.Index]
				if p.Edge != nil {
					facts = p.Edge(pr, b, facts)
				}
				union(in, facts)
			}
			res.In[b.Index] = in
		}

		out := res.In[b.Index].Clone()
		p.Transfer(b, out)
		if !out.Equal(res.Out[b.Index]) {
			res.Out[b.Index] = out
			for _, s := range b.Succs {
				push(s)
			}
		}
	}
	return res
}
