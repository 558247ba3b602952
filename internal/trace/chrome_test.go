package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a small deterministic trace touching every
// event shape the exporter emits: nested sync spans, an async pair,
// an instant, and two tracks.
func goldenTracer() *Tracer {
	tr := New()
	clk := &manualClock{}
	tr.SetClock(clk.read)

	root := tr.Start("pbs/server", "submit", "owner", "alice")
	clk.advance(3 * time.Millisecond)
	child := root.Child("alloc", "job", "J1")
	clk.advance(1500 * time.Microsecond)
	child.End()
	root.End()
	tr.AsyncSpanLinkAt("netsim", "msg.pbs", 0, 500*time.Microsecond, 200*time.Microsecond,
		"from", "cn0", "to", "pbs/server")
	tr.InstantAt("pbs/server", "acct.Q", 3*time.Millisecond, "job", "J1")
	return tr
}

func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			ID   string            `json:"id"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
	}
	// 2 thread_name metas, 2 sync spans, 1 async pair, 1 instant.
	if byPh["M"] != 2 || byPh["X"] != 2 || byPh["b"] != 1 || byPh["e"] != 1 || byPh["i"] != 1 {
		t.Errorf("phase histogram = %v", byPh)
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 {
				t.Errorf("negative dur on %q", ev.Name)
			}
			if ev.Args["span"] == "" {
				t.Errorf("sync span %q missing span id", ev.Name)
			}
		case "b", "e":
			if ev.ID == "" {
				t.Errorf("async event %q missing correlation id", ev.Name)
			}
		case "i":
			if ev.S != "t" {
				t.Errorf("instant %q scope = %q", ev.Name, ev.S)
			}
		}
	}
	// Virtual time maps to microseconds: the alloc child started at
	// 3 ms = 3000 µs.
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "alloc" && ev.Ph == "X" {
			found = true
			if ev.Ts != 3000 || ev.Dur != 1500 {
				t.Errorf("alloc ts/dur = %v/%v µs, want 3000/1500", ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Error("no alloc span in export")
	}
}

func TestWriteChromeParentLinks(t *testing.T) {
	tr := goldenTracer()
	evs := tr.Events()
	// First published event is the child (ends first); its Parent must
	// match the root's ID, and the exporter writes both into args.
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var rootID, childParent string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "submit":
			rootID = ev.Args["span"]
		case "alloc":
			childParent = ev.Args["parent"]
		}
	}
	if rootID == "" || childParent != rootID {
		t.Errorf("child parent = %q, root id = %q", childParent, rootID)
	}
}
