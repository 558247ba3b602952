package pbs

// record heads every message kind of proto.go, which travels as a pointer
// to a record from its sender's free list and goes back to it once served
// (DESIGN.md §9 "What a message costs"): home is that list (nil: built by
// hand, or read-only like a fixed SchedKick).
type record struct{ home interface{ put(any) } }

func (r *record) head() *record { return r }

// kind is a message kind's record pointer.
type kind[T any] interface {
	*T
	head() *record
}

// free is a free list of one message kind. reset, when set, readies a
// handed-back record in place of zeroing it (to keep its buffers).
type free[T any, P kind[T]] struct {
	recs  []P
	reset func(P)
}

// get takes a record off the list, or makes one.
func (l *free[T, P]) get() (p P) {
	if last := len(l.recs) - 1; last >= 0 {
		p, l.recs[last], l.recs = l.recs[last], nil, l.recs[:last]
		return p
	}
	p = P(new(T))
	p.head().home = l
	return p
}

// put keeps a handed-back record zeroed but for its list (the host lists
// it held are not touched): a record handed back twice is on it twice.
func (l *free[T, P]) put(m any) {
	p := m.(P)
	if l.reset != nil {
		l.reset(p)
	} else {
		var zero T
		*p = zero
		p.head().home = l
	}
	l.recs = append(l.recs, p)
}

// Recycle hands a served message back to its record's list, if any.
func Recycle(payload any) {
	if m, ok := payload.(interface{ head() *record }); ok {
		m.head().recycle(payload)
	}
}

// recycle hands m, the message r heads, back to r's list, if any: what a
// holder of the message's type calls, asserting nothing.
func (r *record) recycle(m any) {
	if r.home != nil {
		r.home.put(m)
	}
}

// An Outbox holds one sender's free lists, one a kind it sends, each
// made at the kind's first send; the zero value is empty.
type Outbox []any

// Take returns a record of kind T set to v, from o's list of T.
func Take[T any, P kind[T]](o *Outbox, v T) P {
	var l *free[T, P]
	for _, x := range *o {
		if l, _ = x.(*free[T, P]); l != nil {
			break
		}
	}
	if l == nil {
		l = new(free[T, P])
		*o = append(*o, l)
	}
	p := l.get()
	*p = v
	p.head().home = l
	return p
}
