package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/trace"
)

// Span lines of a capture file: trace owns the record's encoding,
// internal/capture the file around it.

func TestCaptureRoundTrip(t *testing.T) {
	tr := trace.New()
	var now time.Duration
	tr.SetClock(func() time.Duration { return now })
	root := tr.Start("pbs/server", "submit", "job", "J1")
	now += 2 * time.Millisecond
	child := root.Child("alloc")
	now += time.Millisecond
	child.End()
	root.End()
	tr.AsyncSpanLinkAt("netsim", "msg.pbs", root.ID(), 500*time.Microsecond, 200*time.Microsecond,
		"from", "cn0", "to", "pbs/server")
	tr.InstantAt("pbs/server", "acct.Q", 2*time.Millisecond, "job", "J1")

	var buf bytes.Buffer
	want := tr.Events()
	if err := capture.Write(&buf, &capture.File{Spans: want}); err != nil {
		t.Fatal(err)
	}
	f, err := capture.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Spans
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\ngot:  %+v\nwant: %+v", got, want)
	}
	// The async message span must carry its causal link.
	var msg *trace.Event
	for i := range got {
		if got[i].Name == "msg.pbs" {
			msg = &got[i]
		}
	}
	if msg == nil || len(msg.Links) != 1 || msg.Links[0] != root.ID() {
		t.Fatalf("message links = %+v, want [%d]", msg, root.ID())
	}
}

func TestCaptureSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"kind":"span","rec":{"Kind":1,"Track":"x","Name":"i","Start":5,"Dur":0,"ID":0,"Parent":0,"Async":false,"Args":null,"Links":null}}` + "\n \t\n\n"
	f, err := capture.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	evs := f.Spans
	if len(evs) != 1 || evs[0].Kind != trace.KindInstant || evs[0].Start != 5 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestCaptureRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"{not json}\n",
		`{"kind":"span","rec":{"Start":"soon"}}` + "\n",
	} {
		if _, err := capture.Read(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage capture %q parsed without error", in)
		}
	}
}
