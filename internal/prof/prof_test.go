package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/pbs"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runSmall executes a small deterministic testbed run — one DAC job
// with two static accelerators issuing one dynamic request — and
// returns the recorded span stream.
func runSmall(t *testing.T, mutate func(*cluster.Params)) []trace.Event {
	t.Helper()
	p := cluster.Default()
	p.ComputeNodes = 2
	p.Accelerators = 4
	if mutate != nil {
		mutate(&p)
	}
	tr := trace.New()
	p.Tracer = tr
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		id, err := client.Submit(pbs.JobSpec{
			Name: "prof", Owner: "exp", Nodes: 1, PPN: 1, ACPN: 2, Walltime: time.Minute,
			Script: func(env *pbs.JobEnv) {
				ac, _, err := dac.Init(env)
				if err != nil {
					return
				}
				defer ac.Finalize()
				cid, _, err := ac.Get(1)
				if err == nil {
					ac.Free(cid)
				}
			},
		})
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		client.Wait(id)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr.Events()
}

func phaseSum(phases []Phase) time.Duration {
	var sum time.Duration
	for _, ph := range phases {
		sum += ph.Dur
	}
	return sum
}

func TestAnalyzeExactAttribution(t *testing.T) {
	p := Analyze(runSmall(t, nil))
	if len(p.Incomplete) != 0 {
		t.Fatalf("incomplete chains: %v", p.Incomplete)
	}
	if len(p.Jobs) != 1 || len(p.Dyns) != 1 || p.Rejected != 0 {
		t.Fatalf("got %d jobs, %d dyns, %d rejected", len(p.Jobs), len(p.Dyns), p.Rejected)
	}
	j := p.Jobs[0]
	if got, want := phaseSum(j.Phases), j.Total(); got != want {
		t.Errorf("job %s: phases sum to %v, end-to-end is %v", j.ID, got, want)
	}
	if len(j.Phases) != len(StaticPhases) {
		t.Errorf("job %s: %d phases, want %d", j.ID, len(j.Phases), len(StaticPhases))
	}
	for i, ph := range j.Phases {
		if ph.Name != StaticPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, StaticPhases[i])
		}
		if ph.Dur < 0 {
			t.Errorf("phase %s negative: %v", ph.Name, ph.Dur)
		}
	}
	d := p.Dyns[0]
	if got := phaseSum(d.Phases); got != d.Total {
		t.Errorf("dyn %d: phases sum to %v, envelope is %v", d.ReqID, got, d.Total)
	}
	if d.JobID != j.ID {
		t.Errorf("dyn request attributed to %q, want %q", d.JobID, j.ID)
	}
}

func TestCriticalPathCoversTimeline(t *testing.T) {
	p := Analyze(runSmall(t, nil))
	j := p.Jobs[0]
	if len(j.Path) == 0 {
		t.Fatal("empty critical path")
	}
	at := j.Submit
	var sum time.Duration
	for i, seg := range j.Path {
		if seg.Start != at {
			t.Errorf("segment %d starts at %v, want %v (contiguous)", i, seg.Start, at)
		}
		if seg.Dur <= 0 {
			t.Errorf("segment %d (%s) has non-positive duration %v", i, seg.Owner, seg.Dur)
		}
		if seg.Owner == "" {
			t.Errorf("segment %d has empty owner", i)
		}
		if i > 0 && j.Path[i-1].Owner == seg.Owner {
			t.Errorf("segments %d and %d share owner %s (unmerged)", i-1, i, seg.Owner)
		}
		at = seg.Start + seg.Dur
		sum += seg.Dur
	}
	if sum != j.Total() {
		t.Errorf("critical path covers %v, end-to-end is %v", sum, j.Total())
	}
	// The deepest-span sweep must surface the innermost activity, not
	// just the enclosing job.run: the scheduler cycle, the port wait
	// (covering the daemon boot), and the connect phase are all on
	// this job's path by construction.
	owners := make(map[string]bool)
	for _, seg := range j.Path {
		owners[seg.Owner] = true
	}
	for _, want := range []string{"maui;sched.cycle", "dac;wait_port", "dac;connect", "pbs/mom;mom.dynadd"} {
		if !owners[want] {
			t.Errorf("critical path misses %s; owners: %v", want, owners)
		}
	}
}

func TestAnalyzeFromCapture(t *testing.T) {
	events := runSmall(t, nil)
	var buf bytes.Buffer
	if err := capture.Write(&buf, &capture.File{Spans: events}); err != nil {
		t.Fatalf("write capture: %v", err)
	}
	back, err := capture.Read(&buf)
	if err != nil {
		t.Fatalf("read capture: %v", err)
	}
	if !reflect.DeepEqual(Analyze(events), Analyze(back.Spans)) {
		t.Error("profile drifted across a capture round trip")
	}
}

func TestDiffNamesInjectedSlowdown(t *testing.T) {
	base := Summarize(Analyze(runSmall(t, nil)))
	cases := []struct {
		name   string
		mutate func(*cluster.Params)
		phases []string // acceptable top drifters
	}{
		// A slower accelerator integration at the mom: dyn.spawn wins
		// over the equally-widened enclosing run phase (tie-break).
		{"dyn spawn", func(p *cluster.Params) { p.Mom.DynJoinCost += 100 * time.Millisecond }, []string{"dyn.spawn"}},
		{"static spawn", func(p *cluster.Params) { p.Mom.StartCost += 100 * time.Millisecond }, []string{"spawn"}},
		// A slower scheduler cycle shows up as queue wait — for the
		// static placement, the dynamic request, or both.
		{"scheduler", func(p *cluster.Params) { p.Maui.CycleOverhead += 2 * time.Second }, []string{"queue", "dyn.queue"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slow := Summarize(Analyze(runSmall(t, tc.mutate)))
			top, ok := TopDrifter(Diff(base, slow))
			if !ok {
				t.Fatal("no phases to compare")
			}
			found := false
			for _, want := range tc.phases {
				if top.Name == want {
					found = true
				}
			}
			if !found {
				t.Errorf("top drifter = %s (%+v), want one of %v", top.Name, top.Delta, tc.phases)
			}
			if top.Delta <= 0 {
				t.Errorf("injected slowdown reads as %v", top.Delta)
			}
		})
	}
}

func TestSummaryMerge(t *testing.T) {
	events := runSmall(t, nil)
	one := Summarize(Analyze(events))
	two := Summarize(Analyze(events))
	two.Merge(one)
	if two.Jobs != 2*one.Jobs || two.Dyns != 2*one.Dyns {
		t.Errorf("merge counts: jobs %d dyns %d", two.Jobs, two.Dyns)
	}
	if got, want := two.Static["queue"].N(), 2*one.Static["queue"].N(); got != want {
		t.Errorf("merged queue sample N = %d, want %d", got, want)
	}
	if got, want := two.Total.Mean(), one.Total.Mean(); got != want {
		t.Errorf("merged mean %v, want %v (identical inputs)", got, want)
	}
	if got, want := two.Path["pbs/mom;job.run"], 2*one.Path["pbs/mom;job.run"]; got != want {
		t.Errorf("merged path share %v, want %v", got, want)
	}
}

func TestGoldenProfile(t *testing.T) {
	events := runSmall(t, nil)
	p := Analyze(events)
	s := Summarize(p)
	var buf bytes.Buffer
	if err := s.StaticTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.DynTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.PathTable(5).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := JobTable(p).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteFolded(&buf, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "profile.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("profile output drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestFoldedStacksWellFormed(t *testing.T) {
	events := runSmall(t, nil)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("only %d folded stacks", len(lines))
	}
	prev := ""
	for _, ln := range lines {
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			t.Fatalf("malformed folded line %q", ln)
		}
		stack := ln[:i]
		if stack <= prev {
			t.Errorf("stacks not strictly sorted: %q after %q", stack, prev)
		}
		prev = stack
		if !strings.Contains(stack, ";") {
			t.Errorf("stack %q has no frames", stack)
		}
	}
	// Nested DAC work must appear as multi-frame stacks.
	if !strings.Contains(buf.String(), "dac;ac.init;connect ") {
		t.Errorf("expected dac;ac.init;connect stack in:\n%s", buf.String())
	}
}
