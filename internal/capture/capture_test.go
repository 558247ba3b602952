package capture

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// One valid line of each kind, as Write emits them.
const (
	spanLine   = `{"kind":"span","rec":{"Kind":0,"Track":"maui","Name":"sched.cycle","Start":5,"Dur":7,"ID":1,"Parent":0,"Async":false,"Args":[{"Key":"job","Value":"J1"}],"Links":[3]}}`
	auditLine  = `{"kind":"audit","rec":{"seq":4,"vt_ns":1200000,"kind":"job","comp":"pbs","subj":"1.pbs/server","detail":"submit","a":1}}`
	scrapeLine = `{"kind":"scrape","rec":{"window":0,"start":0,"end":5000000000,"rows":[{"name":"pbs.submits","kind":"counter","total":3,"delta":3}]}}`
)

func sample() *File {
	return &File{
		Spans: []trace.Event{{Kind: trace.KindSpan, Track: "maui", Name: "sched.cycle", Start: 5, Dur: 7, ID: 1,
			Args: []trace.KV{{Key: "job", Value: "J1"}}, Links: []uint64{3}}},
		Audit: []audit.Event{{Seq: 4, VT: 1200 * time.Microsecond, Kind: audit.KindJob, Comp: "pbs",
			Subj: "1.pbs/server", Detail: "submit", A: 1}},
		Windows: []telemetry.Window{{Index: 0, Start: 0, End: 5 * time.Second,
			Rows: []telemetry.Row{{Name: "pbs.submits", Kind: telemetry.KindCounter, Total: 3, Delta: 3}}}},
	}
}

func TestWriteReadAllKinds(t *testing.T) {
	want := sample()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != spanLine+"\n"+auditLine+"\n"+scrapeLine+"\n" {
		t.Fatalf("wire form drifted:\n%s", got)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if k := got.Kinds(); k != "span (1), audit (1), scrape (1)" {
		t.Fatalf("Kinds = %q", k)
	}
	if k := (&File{}).Kinds(); k != "nothing" {
		t.Fatalf("empty Kinds = %q", k)
	}
}

// Kinds may interleave, lines may end in CRLF, and whitespace-only
// lines are skipped whatever the kind around them.
func TestReadTolerantOfLayout(t *testing.T) {
	in := "\n" + scrapeLine + "\r\n \t \n" + spanLine + "\n\n" + auditLine + "\r\n" + spanLine
	f, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) != 2 || len(f.Audit) != 1 || len(f.Windows) != 1 {
		t.Fatalf("read %s", f.Kinds())
	}
}

// Every rejection names the line and, once it is known, the kind.
func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
		want     []string
	}{
		{"truncated", spanLine + "\n" + auditLine[:40] + "\n", []string{"line 2"}},
		{"not json", "\n\nnonsense\n", []string{"line 3"}},
		{"unknown kind", `{"kind":"metric","rec":{}}` + "\n", []string{"line 1", `unknown kind "metric"`}},
		{"bare record", `{"seq":0,"vt_ns":0,"kind":"job"}` + "\n", []string{"line 1", `kind "job"`}},
		{"no rec", spanLine + "\n" + `{"kind":"audit"}` + "\n", []string{"line 2", `"audit"`, "no rec"}},
		{"null rec", `{"kind":"span","rec":null}` + "\n", []string{"line 1", "no rec"}},
		{"mistyped span", `{"kind":"span","rec":{"Start":"soon"}}` + "\n", []string{"line 1", "span record"}},
		{"unknown audit kind", scrapeLine + "\n" + `{"kind":"audit","rec":{"kind":"bogus"}}` + "\n", []string{"line 2", "audit record", `unknown kind "bogus"`}},
		{"mistyped scrape", `{"kind":"scrape","rec":[1]}` + "\n", []string{"line 1", "scrape record"}},
		{"over cap", auditLine + "\n" + strings.Repeat("x", MaxLine+1) + "\n", []string{"line 2", "too long"}},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: read without error", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, w)
			}
		}
	}
}

func TestFileErrorsNameTheFile(t *testing.T) {
	path := Path(t.TempDir()+"/run", 8)
	if !strings.HasSuffix(path, "/run-8.jsonl") {
		t.Fatalf("Path = %q", path)
	}
	if got := Path("out/run.jsonl", 0); got != "out/run.jsonl" {
		t.Fatalf("Path(nodes=0) = %q", got)
	}
	if err := WriteFile(path, sample()); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(f, sample()) {
		t.Fatalf("ReadFile = %+v, %v", f, err)
	}
	bad := t.TempDir() + "/bad.jsonl"
	if err := os.WriteFile(bad, []byte(spanLine+"\nnonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), "bad.jsonl") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad file: err = %v, want the file and line named", err)
	}
	if _, err := ReadFile(t.TempDir() + "/missing.jsonl"); err == nil {
		t.Fatal("missing file read without error")
	}
}

// FuzzReadCapture: whatever the bytes, Read returns a file or an
// error — it never panics — and a file it accepts writes back out.
func FuzzReadCapture(f *testing.F) {
	for _, seed := range []string{
		spanLine + "\n", auditLine + "\n", scrapeLine + "\n",
		spanLine[:len(spanLine)/2],
		`{"kind":"metric","rec":{}}` + "\n",
		strings.Repeat("x", MaxLine+1) + "\n",
		auditLine + "\r\n" + scrapeLine + "\r\n",
		" \n\t\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		file, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := Write(&bytes.Buffer{}, file); err != nil {
			t.Fatalf("accepted capture does not write back: %v", err)
		}
	})
}
