package audit

import (
	"fmt"
	"io"
	"time"
)

// Divergence describes the first point where two recordings differ.
type Divergence struct {
	Index int // position of the first divergent event in both streams

	// WindowStart is the stream position of the first event in the
	// surrounding windows (Index clamped back by the diff context).
	WindowStart int

	// Left and Right are the divergent events; one is nil when that
	// recording ended before the other.
	Left, Right *Event

	// WindowLeft and WindowRight are the surrounding events from each
	// recording (up to the diff context before and after Index).
	WindowLeft, WindowRight []Event
}

// Comp names the component responsible for the divergence: the
// component of the first differing event (both sides, when they name
// different ones).
func (d *Divergence) Comp() string {
	switch {
	case d.Left != nil && d.Right != nil && d.Left.Comp != d.Right.Comp:
		return d.Left.Comp + "/" + d.Right.Comp
	case d.Left != nil:
		return d.Left.Comp
	case d.Right != nil:
		return d.Right.Comp
	}
	return "?"
}

// VT returns the virtual timestamp of the divergence (the earlier of
// the two sides when both are present).
func (d *Divergence) VT() time.Duration {
	switch {
	case d.Left != nil && d.Right != nil:
		if d.Right.VT < d.Left.VT {
			return d.Right.VT
		}
		return d.Left.VT
	case d.Left != nil:
		return d.Left.VT
	case d.Right != nil:
		return d.Right.VT
	}
	return 0
}

// sameEvent compares everything that makes two recordings "the same
// run": kind, component, subject, detail, payloads, and virtual
// timestamp. Seq is implied by position and skipped, so recordings
// whose rings wrapped at different depths still align.
func sameEvent(a, b Event) bool {
	return a.Kind == b.Kind && a.Comp == b.Comp && a.Subj == b.Subj &&
		a.Detail == b.Detail && a.A == b.A && a.B == b.B && a.VT == b.VT
}

// Diff walks two recordings to the first divergent event and returns
// it with up to context surrounding events from each side, or nil
// when the recordings are identical. A recording that is a strict
// prefix of the other diverges at the first missing event.
func Diff(a, b []Event, context int) *Divergence {
	if context < 0 {
		context = 0
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	idx := -1
	for i := 0; i < n; i++ {
		if !sameEvent(a[i], b[i]) {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(a) == len(b) {
			return nil
		}
		idx = n
	}
	lo := idx - context
	if lo < 0 {
		lo = 0
	}
	d := &Divergence{Index: idx, WindowStart: lo}
	if idx < len(a) {
		d.Left = &a[idx]
	}
	if idx < len(b) {
		d.Right = &b[idx]
	}
	d.WindowLeft = window(a, lo, idx+context+1)
	d.WindowRight = window(b, lo, idx+context+1)
	return d
}

func window(ev []Event, lo, hi int) []Event {
	if hi > len(ev) {
		hi = len(ev)
	}
	if lo >= hi {
		return nil
	}
	return ev[lo:hi]
}

// FormatEvent renders one event the way dacobs audit prints it.
func FormatEvent(e Event) string {
	return fmt.Sprintf("#%-6d %12.3fms  %-7s %-7s %-14s %-22s a=%d b=%d",
		e.Seq, float64(e.VT)/1e6, e.Kind, e.Comp, e.Subj, e.Detail, e.A, e.B)
}

// WriteDivergence renders a divergence report: responsible component,
// virtual timestamp, the two divergent events, and the surrounding
// window from each recording.
func WriteDivergence(w io.Writer, d *Divergence, nameA, nameB string) error {
	if d == nil {
		_, err := fmt.Fprintln(w, "recordings are identical")
		return err
	}
	side := func(e *Event) string {
		if e == nil {
			return "(recording ended)"
		}
		return FormatEvent(*e)
	}
	if _, err := fmt.Fprintf(w,
		"first divergence at event %d: component %s, virtual time %.3fms\n  %s: %s\n  %s: %s\n",
		d.Index, d.Comp(), float64(d.VT())/1e6,
		nameA, side(d.Left), nameB, side(d.Right)); err != nil {
		return err
	}
	// The divergent event sits min(Index, context) into each window
	// (window slices start at Index-context, clamped to 0).
	emit := func(name string, ev []Event, at int) error {
		if _, err := fmt.Fprintf(w, "window %s:\n", name); err != nil {
			return err
		}
		for i, e := range ev {
			marker := "  "
			if i == at {
				marker = "> "
			}
			if _, err := fmt.Fprintf(w, "%s%s\n", marker, FormatEvent(e)); err != nil {
				return err
			}
		}
		return nil
	}
	at := d.Index - d.WindowStart
	if err := emit(nameA, d.WindowLeft, at); err != nil {
		return err
	}
	return emit(nameB, d.WindowRight, at)
}
