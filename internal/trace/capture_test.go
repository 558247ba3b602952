package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSpanLink(t *testing.T) {
	tr := New()
	a := tr.Start("maui", "place")
	a.End()
	b := tr.Start("pbs/server", "alloc")
	b.Link(a.ID())
	b.Link(0) // zero ids (nil-span causes) are ignored
	b.End()
	evs := tr.Events()
	if len(evs[0].Links) != 0 {
		t.Errorf("unlinked span has links %v", evs[0].Links)
	}
	if len(evs[1].Links) != 1 || evs[1].Links[0] != a.ID() {
		t.Errorf("links = %v, want [%d]", evs[1].Links, a.ID())
	}
}

func TestEventLimit(t *testing.T) {
	tr := New()
	tr.SetLimit(2)
	for i := 0; i < 5; i++ {
		tr.InstantAt("x", "i", 0)
	}
	if n := len(tr.Events()); n != 2 {
		t.Fatalf("retained %d events, want 2", n)
	}
	if d := tr.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	// Lifting the limit resumes recording.
	tr.SetLimit(0)
	tr.InstantAt("x", "i", 0)
	if n := len(tr.Events()); n != 3 {
		t.Fatalf("retained %d events after lifting limit, want 3", n)
	}
}

func TestChromeEmitsLinks(t *testing.T) {
	tr := New()
	a := tr.Start("maui", "place")
	a.End()
	tr.AsyncSpanLinkAt("netsim", "msg.pbs", a.ID(), 0, time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"links":"1"`) {
		t.Fatalf("chrome export missing links arg:\n%s", buf.String())
	}
}
