package pbs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// formatResourceRequestRef is FormatResourceRequest as it was written
// before the details were appended with strconv: the reference the
// appenders are held to.
func formatResourceRequestRef(spec JobSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d:ppn=%d", spec.Nodes, spec.PPN)
	if spec.ACPN > 0 {
		fmt.Fprintf(&b, ":acpn=%d", spec.ACPN)
	}
	if spec.Walltime > 0 {
		total := int(spec.Walltime.Seconds())
		fmt.Fprintf(&b, ",walltime=%02d:%02d:%02d", total/3600, (total/60)%60, total%60)
	}
	return b.String()
}

// TestAccountingRecordTextIsTheFormattedText: every record type's line
// is byte for byte what fmt made of it, over a spread of requests, and
// survives the round trip through the log's text.
func TestAccountingRecordTextIsTheFormattedText(t *testing.T) {
	specs := []JobSpec{
		{Owner: "alice", Nodes: 1, PPN: 1},
		{Owner: "bob", Nodes: 4, PPN: 8, ACPN: 2, Walltime: 90 * time.Second},
		{Owner: "", Nodes: 128, PPN: 0, ACPN: 12, Walltime: 10*time.Hour + 5*time.Minute + 7*time.Second},
		{Owner: "u17", Nodes: 2, PPN: 16, Walltime: 123*time.Hour + 59*time.Minute + 59*time.Second},
		{Owner: "short", Nodes: 3, PPN: 2, Walltime: 300 * time.Millisecond},
	}
	grants := []DynRecord{
		{ClientID: 1, Kind: KindAccelerator, Hosts: []string{"ac0"}},
		{ClientID: 4711, Kind: KindCompute, Hosts: []string{"cn12", "cn13", "cn200"}},
		{ClientID: 12, Kind: KindAccelerator, Count: 1234},
	}
	const id = "42.pbs/server"
	at := 1234567 * time.Microsecond
	var recs []AccountingRecord
	add := func(typ byte, detail []byte, ref string) {
		t.Helper()
		rec := AccountingRecord{At: at, Type: typ, JobID: id, Detail: string(detail)}
		if want := fmt.Sprintf("%d;%c;%s;%s", at.Microseconds(), typ, id, ref); rec.String() != want {
			t.Errorf("record reads %q, want %q", rec.String(), want)
		}
		recs = append(recs, rec)
	}
	var buf [16]byte // smaller than most details: the appenders must grow it
	for _, spec := range specs {
		if got, want := FormatResourceRequest(spec), formatResourceRequestRef(spec); got != want {
			t.Errorf("FormatResourceRequest = %q, want %q", got, want)
		}
		add(AcctQueued, appendQueuedDetail(buf[:0], spec), fmt.Sprintf("owner=%s %s", spec.Owner, formatResourceRequestRef(spec)))
	}
	for i := range grants {
		g := &grants[i]
		add(AcctDynGrant, appendGrantDetail(buf[:0], g), fmt.Sprintf("client=%d kind=%s hosts=%s", g.ClientID, g.Kind, strings.Join(g.Hosts, "+")))
		add(AcctDynFree, appendKV(buf[:0], "client=", g.ClientID), fmt.Sprintf("client=%d", g.ClientID))
		add(AcctDynReject, appendKV(buf[:0], "count=", g.Count), fmt.Sprintf("count=%d", g.Count))
	}
	for _, typ := range []byte{AcctStarted, AcctEnded, AcctDeleted} {
		add(typ, nil, "")
	}
	var text bytes.Buffer
	if err := WriteAccountingLog(&text, recs); err != nil {
		t.Fatalf("WriteAccountingLog: %v", err)
	}
	back, err := ReadAccountingLog(&text)
	if err != nil || len(back) != len(recs) {
		t.Fatalf("ReadAccountingLog: %d of %d records, err %v", len(back), len(recs), err)
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Errorf("record %d came back as %+v, was %+v", i, back[i], recs[i])
		}
	}
}

// TestAccountingRecordCostsAtMostOneAllocation pins what appending a
// record costs: its detail's text, nothing when it has none.
func TestAccountingRecordCostsAtMostOneAllocation(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts mean nothing under -race")
	}
	net := netsim.New(sim.New(), netsim.LinkParams{})
	s := NewServer(net, ServerParams{AcctRing: 64}) // a bounded log: appending stops growing it
	const id = "42.pbs/server"
	spec := JobSpec{Owner: "alice", Nodes: 4, PPN: 8, ACPN: 2, Walltime: 36 * time.Hour}
	grant := &DynRecord{ClientID: 4711, Kind: KindAccelerator, Hosts: []string{"ac100", "ac101", "ac102"}}
	for _, c := range []struct {
		typ    byte
		max    float64
		append func()
	}{
		{AcctQueued, 1, func() { var b [96]byte; s.account(AcctQueued, id, appendQueuedDetail(b[:0], spec)) }},
		{AcctStarted, 0, func() { s.account(AcctStarted, id, nil) }},
		{AcctEnded, 0, func() { s.account(AcctEnded, id, nil) }},
		{AcctDynGrant, 1, func() { var b [128]byte; s.account(AcctDynGrant, id, appendGrantDetail(b[:0], grant)) }},
		{AcctDynFree, 1, func() { var b [32]byte; s.account(AcctDynFree, id, appendKV(b[:0], "client=", grant.ClientID)) }},
	} {
		for i := 0; i < 256; i++ { // fill the ring
			c.append()
		}
		if got := testing.AllocsPerRun(200, c.append); got > c.max {
			t.Errorf("appending a %c record: %v allocations, want at most %v", c.typ, got, c.max)
		}
	}
}

// TestTracedAccountingRecordCostsOnlyItsDetail: under a tracer a record
// still costs one object, its detail's text, because its instant's
// name comes from a table; and that instant is named acct.<type> for
// every record type the server writes.
func TestTracedAccountingRecordCostsOnlyItsDetail(t *testing.T) {
	sm := sim.New()
	tr := trace.New()
	sm.SetTracer(tr)
	s := NewServer(netsim.New(sm, netsim.LinkParams{}), ServerParams{AcctRing: 64})
	for _, typ := range []byte{AcctQueued, AcctStarted, AcctEnded, AcctDeleted, AcctFailed, AcctDynGrant, AcctDynReject, AcctDynFree} {
		account := func() { var b [32]byte; s.account(typ, "42.pbs/server", appendKV(b[:0], "client=", 4711)) }
		account()
		evs := tr.Events()
		if got, want := evs[len(evs)-1].Name, "acct."+string(typ); got != want {
			t.Errorf("a %c record's instant is named %q, want %q", typ, got, want)
		}
		if raceDetectorOn {
			continue // allocation counts mean nothing under -race
		}
		for i := 0; i < 256; i++ { // fill the ring
			account()
		}
		if got := testing.AllocsPerRun(200, account); got != 1 {
			t.Errorf("appending a traced %c record: %v allocations, want 1 (its detail)", typ, got)
		}
	}
}

// TestAccountingLogAcrossBlocks: the log read back across five block
// boundaries is every record appended, in order; bounded by AcctRing, it
// is the newest of them, at least AcctRing and at most twice that.
func TestAccountingLogAcrossBlocks(t *testing.T) {
	for _, ring := range []int{0, 100, acctBlockLen + 100, 2*acctBlockLen + 1, 4 * acctBlockLen} {
		s := NewServer(netsim.New(sim.New(), netsim.LinkParams{}), ServerParams{AcctRing: ring})
		var ref []AccountingRecord
		for i := 0; i < 5*acctBlockLen+5; i++ {
			id := fmt.Sprint(i)
			s.account(AcctQueued, id, []byte("owner="+id))
			ref = append(ref, AccountingRecord{Type: AcctQueued, JobID: id, Detail: "owner=" + id})
			held := 0
			for _, blk := range s.acct {
				held += len(blk)
			}
			if want := len(ref); ring > 0 && want > ring && (held < ring || held > 2*ring) || ring == 0 && held != want {
				t.Fatalf("ring %d: the log holds %d of %d records", ring, held, want)
			}
		}
		got := s.AccountingLog()
		if ring > 0 && len(ref) > ring {
			ref = ref[len(ref)-len(got):]
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("ring %d: the log holds %d records, first %v, want %d from %v", ring, len(got), got[0], len(ref), ref[0])
		}
	}
}
