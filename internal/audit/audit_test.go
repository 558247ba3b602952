package audit

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(KindJob, "pbs", "1.cluster", "submit", 1, 2)
	r.Check("pbs", "conservation", "cn0", false, 0, 0)
	r.RegisterDigest("pbs", "pbs.jobs", func(*Digest) {})
	r.SetClock(func() time.Duration { return 0 })
	r.OnBreach(func(Event) {})
	if r.CaptureDigests() != 0 || r.Len() != 0 || r.Breaches() != 0 ||
		r.Checks() != 0 || r.Dropped() != 0 || r.Events() != nil || r.DigestCaptures() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// TestDisabledRecordAllocs pins the acceptance criterion directly:
// recording through a disabled (nil) recorder is alloc-free.
func TestDisabledRecordAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindAlloc, "pbs", "ac3", "1.cluster", 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledRecordAllocs pins the enabled hot path too: events are
// written in place into preallocated ring slots.
func TestEnabledRecordAllocs(t *testing.T) {
	r := New(1024)
	r.SetClock(func() time.Duration { return 42 })
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindMsg, "netsim", "cn0", "pbs", 128, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled Record allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRecordAndEvents(t *testing.T) {
	now := time.Duration(0)
	r := New(8)
	r.SetClock(func() time.Duration { return now })
	now = 5 * time.Millisecond
	r.Record(KindJob, "pbs", "1.c", "submit", 2, 0)
	now = 7 * time.Millisecond
	r.Record(KindAlloc, "pbs", "ac0", "1.c", 1, 0)
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	want := Event{Seq: 0, VT: 5 * time.Millisecond, Kind: KindJob, Comp: "pbs", Subj: "1.c", Detail: "submit", A: 2}
	if ev[0] != want {
		t.Fatalf("event 0 = %+v, want %+v", ev[0], want)
	}
	if ev[1].Seq != 1 || ev[1].VT != 7*time.Millisecond || ev[1].Kind != KindAlloc {
		t.Fatalf("event 1 = %+v", ev[1])
	}
}

func TestRingWraps(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(KindNode, "pbs", "cn0", "", int64(i), 0)
	}
	if r.Len() != 10 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 10/6", r.Len(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.A != int64(6+i) || e.Seq != uint64(6+i) {
			t.Fatalf("retained[%d] = %+v, want a=%d", i, e, 6+i)
		}
	}
}

// A released ring may serve the next recorder of its size, which sees
// none of the old recording.
func TestReleasedRingStartsClean(t *testing.T) {
	old := New(4)
	for i := 0; i < 6; i++ {
		old.Record(KindNode, "pbs", "cn0", "", int64(i), 0)
	}
	old.Release()
	r := New(4)
	r.Record(KindNode, "pbs", "cn1", "", 9, 0)
	if ev := r.Events(); len(ev) != 1 || ev[0].Subj != "cn1" || ev[0].Seq != 0 || r.Dropped() != 0 {
		t.Fatalf("fresh recorder holds %+v, dropped %d", ev, r.Dropped())
	}
}

func TestCheckRecordsBreaches(t *testing.T) {
	r := New(16)
	var fired []Event
	r.OnBreach(func(e Event) { fired = append(fired, e) })
	r.Check("pbs", "conservation.host", "cn0", true, 8, 8)
	r.Check("pbs", "double-alloc", "ac1", false, 2, 1)
	if r.Checks() != 2 || r.Breaches() != 1 {
		t.Fatalf("checks=%d breaches=%d, want 2/1", r.Checks(), r.Breaches())
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].Kind != KindBreach || ev[0].Subj != "double-alloc" {
		t.Fatalf("events = %+v", ev)
	}
	if len(fired) != 1 || fired[0].Subj != "double-alloc" || fired[0].A != 2 {
		t.Fatalf("OnBreach fired with %+v", fired)
	}
}

func TestDigestDeterminism(t *testing.T) {
	sum := func() uint64 {
		d := &Digest{h: fnvOffset64}
		d.WriteString("cn0")
		d.WriteInt(-3)
		d.WriteUint(7)
		d.WriteBool(true)
		return d.Sum()
	}
	if sum() != sum() {
		t.Fatal("digest not deterministic")
	}
	// Length delimiting: ("ab","c") must differ from ("a","bc").
	a, b := &Digest{h: fnvOffset64}, &Digest{h: fnvOffset64}
	a.WriteString("ab")
	a.WriteString("c")
	b.WriteString("a")
	b.WriteString("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("field boundaries must not collide")
	}
}

// refDigest is the byte-at-a-time FNV-1a the writers must equal: a
// string is its bytes and then its length, an integer its eight
// little-endian bytes, a bool one 0/1 byte.
type refDigest struct{ h uint64 }

func (r *refDigest) byte(b byte) { r.h = (r.h ^ uint64(b)) * fnvPrime64 }

func (r *refDigest) uint(v uint64) {
	for i := 0; i < 8; i++ {
		r.byte(byte(v >> (8 * i)))
	}
}

func (r *refDigest) str(s string) {
	for i := 0; i < len(s); i++ {
		r.byte(s[i])
	}
	r.uint(uint64(len(s)))
}

// TestDigestWritersMatchByteAtATimeFNV feeds random strings, integers
// of every width and bools to a Digest and to the reference, from the
// FNV offset and from the zero state a bare Digest value starts in, and
// compares the sums after every write. Each trial opens with the
// integers whose zero bytes the writer folds: none, all, some in the
// middle, all but the top one, and the all-ones values.
func TestDigestWritersMatchByteAtATimeFNV(t *testing.T) {
	edges := []uint64{0, 1, 0xff, 0x100, 0x10001, 0xff0000ff, 0x0100000000000001,
		1 << 56, 1 << 63, uint64(1<<64 - 1)}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		start := uint64(fnvOffset64)
		if trial%2 == 1 {
			start = 0
		}
		d, ref := &Digest{h: start}, &refDigest{h: start}
		for i, v := range edges {
			d.WriteUint(v)
			ref.uint(v)
			d.WriteInt(-int64(i))
			ref.uint(uint64(-int64(i)))
			if d.Sum() != ref.h {
				t.Fatalf("trial %d: sum %x after %#x and %d, byte-at-a-time FNV-1a %x", trial, d.Sum(), v, -i, ref.h)
			}
		}
		for op := 0; op < 32; op++ {
			switch rng.Intn(5) {
			case 4:
				v := rng.Uint64() >> (8 * rng.Intn(9)) // every width, 0 included
				d.WriteUint(v)
				ref.uint(v)
			case 0:
				b := make([]byte, rng.Intn(40))
				rng.Read(b)
				d.WriteString(string(b))
				ref.str(string(b))
			case 1:
				v := int64(rng.Uint64())
				d.WriteInt(v)
				ref.uint(uint64(v))
			case 2:
				v := rng.Uint64()
				d.WriteUint(v)
				ref.uint(v)
			default:
				v := rng.Intn(2) == 1
				d.WriteBool(v)
				if v {
					ref.byte(1)
				} else {
					ref.byte(0)
				}
			}
			if d.Sum() != ref.h {
				t.Fatalf("trial %d write %d: sum %x, byte-at-a-time FNV-1a %x", trial, op, d.Sum(), ref.h)
			}
		}
	}
}

func TestCaptureDigestsSortedAndStable(t *testing.T) {
	r := New(64)
	r.RegisterDigest("netsim", "netsim.pairs", func(d *Digest) { d.WriteInt(1) })
	r.RegisterDigest("pbs", "pbs.jobs", func(d *Digest) { d.WriteInt(2) })
	r.RegisterDigest("maui", "maui.sched", func(d *Digest) { d.WriteInt(3) })
	r.CaptureDigests()
	r.CaptureDigests()
	ev := r.Events()
	if len(ev) != 6 {
		t.Fatalf("got %d digest events, want 6", len(ev))
	}
	wantOrder := []string{"maui.sched", "netsim.pairs", "pbs.jobs"}
	for round := 0; round < 2; round++ {
		for i, name := range wantOrder {
			e := ev[round*3+i]
			if e.Kind != KindDigest || e.Subj != name || e.B != int64(round) {
				t.Fatalf("round %d event %d = %+v, want subj %s", round, i, e, name)
			}
		}
	}
	// Same provider state, same sums across rounds.
	for i := 0; i < 3; i++ {
		if ev[i].A != ev[3+i].A {
			t.Fatalf("digest %s changed across rounds with unchanged state", ev[i].Subj)
		}
	}
	if r.DigestCaptures() != 2 {
		t.Fatalf("captures = %d, want 2", r.DigestCaptures())
	}
	// fresh is what a provider writing v sums to on a Digest of its own:
	// the round's shared one is reset to the offset before each provider.
	fresh := func(v int64) int64 {
		d := &Digest{h: fnvOffset64}
		d.WriteInt(v)
		return int64(d.Sum())
	}
	// A late registration sorts into the next round, and registering a
	// name again replaces its provider.
	r.RegisterDigest("audit", "aa.late", func(d *Digest) { d.WriteInt(4) })
	r.RegisterDigest("netsim", "netsim.pairs", func(d *Digest) { d.WriteInt(5) })
	r.CaptureDigests()
	ev = r.Events()[6:]
	want := []struct {
		name string
		v    int64
	}{{"aa.late", 4}, {"maui.sched", 3}, {"netsim.pairs", 5}, {"pbs.jobs", 2}}
	if len(ev) != len(want) {
		t.Fatalf("round 2 recorded %d digests, want %d", len(ev), len(want))
	}
	for i, w := range want {
		if e := ev[i]; e.Subj != w.name || e.A != fresh(w.v) || e.B != 2 {
			t.Errorf("round 2 event %d = %+v, want %s summing %x", i, e, w.name, fresh(w.v))
		}
	}
}

// fakeClock drives the ticker without a simulation.
type fakeClock struct {
	now     time.Duration
	pending []struct {
		at time.Duration
		fn func()
	}
}

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) After(d time.Duration, fn func()) {
	c.pending = append(c.pending, struct {
		at time.Duration
		fn func()
	}{c.now + d, fn})
}
func (c *fakeClock) advance(to time.Duration) {
	for {
		ran := false
		for i, p := range c.pending {
			if p.at <= to {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				c.now = p.at
				p.fn()
				ran = true
				break
			}
		}
		if !ran {
			break
		}
	}
	c.now = to
}

func TestTickerCadenceAndStop(t *testing.T) {
	r := New(64)
	r.RegisterDigest("pbs", "pbs.jobs", func(d *Digest) { d.WriteInt(1) })
	clk := &fakeClock{}
	tk := NewTicker(r, clk, 5*time.Millisecond)
	tk.Start()
	clk.advance(17 * time.Millisecond) // captures at 5, 10, 15
	tk.Stop()                          // final partial capture
	if got := r.DigestCaptures(); got != 4 {
		t.Fatalf("captures = %d, want 4", got)
	}
	tk.Stop() // idempotent
	clk.advance(40 * time.Millisecond)
	if got := r.DigestCaptures(); got != 4 {
		t.Fatalf("captures after stop = %d, want 4", got)
	}
}

func TestTickerMaxCaptures(t *testing.T) {
	r := New(64)
	clk := &fakeClock{}
	tk := NewTicker(r, clk, time.Millisecond)
	tk.MaxCaptures = 3
	tk.Start()
	clk.advance(100 * time.Millisecond)
	if got := r.DigestCaptures(); got != 3 {
		t.Fatalf("captures = %d, want 3 (self-disarm)", got)
	}
	if len(clk.pending) != 0 {
		t.Fatalf("%d timers still armed after cap", len(clk.pending))
	}
}

func TestRecordingRoundTrip(t *testing.T) {
	r := New(16)
	r.SetClock(func() time.Duration { return 3 * time.Millisecond })
	r.Record(KindJob, "pbs", "1.c", "submit", 2, 0)
	r.Record(KindBreach, "pbs", "double-alloc", "ac1", 2, 1)
	want := r.Events()
	wire, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := json.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadRecordingRejectsUnknownKind(t *testing.T) {
	var e Event
	err := json.Unmarshal([]byte(`{"seq":0,"vt_ns":0,"kind":"bogus"}`), &e)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown kind", err)
	}
}

func TestDiffFindsFirstDivergence(t *testing.T) {
	mk := func() []Event {
		var ev []Event
		for i := 0; i < 10; i++ {
			ev = append(ev, Event{Seq: uint64(i), VT: time.Duration(i) * time.Millisecond,
				Kind: KindNode, Comp: "pbs", Subj: "cn0", A: int64(i)})
		}
		return ev
	}
	a, b := mk(), mk()
	if d := Diff(a, b, 3); d != nil {
		t.Fatalf("identical recordings diverge: %+v", d)
	}
	b[6].A = 99
	b[6].Comp = "maui"
	d := Diff(a, b, 2)
	if d == nil || d.Index != 6 {
		t.Fatalf("divergence = %+v, want index 6", d)
	}
	if d.Comp() != "pbs/maui" {
		t.Fatalf("comp = %q", d.Comp())
	}
	if d.VT() != 6*time.Millisecond {
		t.Fatalf("vt = %v", d.VT())
	}
	if len(d.WindowLeft) != 5 || len(d.WindowRight) != 5 || d.WindowStart != 4 {
		t.Fatalf("window = %d/%d start %d", len(d.WindowLeft), len(d.WindowRight), d.WindowStart)
	}
	var buf bytes.Buffer
	if err := WriteDivergence(&buf, d, "a.jsonl", "b.jsonl"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"first divergence at event 6", "component pbs/maui", "6.000ms"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}

func TestDiffPrefix(t *testing.T) {
	a := []Event{{Kind: KindJob, Comp: "pbs"}, {Kind: KindMsg, Comp: "netsim"}}
	d := Diff(a, a[:1], 4)
	if d == nil || d.Index != 1 || d.Right != nil || d.Left == nil {
		t.Fatalf("prefix divergence = %+v", d)
	}
	if d.Comp() != "netsim" {
		t.Fatalf("comp = %q", d.Comp())
	}
}
