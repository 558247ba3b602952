package workload

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

const sampleSWF = `; SWF header comment
; MaxNodes: 8
  1    0   5   100   16  -1 -1   16   200 -1 1  3 1 -1 1 1 -1 -1
  2   60  -1    30    4  -1 -1    4    -1 -1 1  7 1 -1 1 1 -1 -1
  3  120   0    -1   -1  -1 -1    2    50 -1 0 -1 1 -1 1 1 -1 -1
`

func TestParseSWF(t *testing.T) {
	entries, err := ParseSWF(strings.NewReader(sampleSWF), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}

	e := entries[0]
	if e.Name != "swf-1" || e.At != 0 || e.Runtime != 100*time.Second || e.Walltime != 200*time.Second {
		t.Errorf("entry 0 = %+v", e)
	}
	// 16 processors on 8-core nodes → 2 nodes × 8 cores.
	if e.Nodes != 2 || e.PPN != 8 {
		t.Errorf("entry 0 shape = %d×%d", e.Nodes, e.PPN)
	}
	if e.Owner != "user3" {
		t.Errorf("entry 0 owner = %q", e.Owner)
	}

	e = entries[1]
	if e.At != 60*time.Second || e.Nodes != 1 || e.PPN != 4 {
		t.Errorf("entry 1 = %+v", e)
	}
	// Missing requested time falls back to runtime.
	if e.Walltime != 30*time.Second {
		t.Errorf("entry 1 walltime = %v", e.Walltime)
	}

	e = entries[2]
	// Missing allocated processors falls back to requested (2);
	// missing runtime clamps to zero; missing uid → unknown.
	if e.Nodes != 1 || e.PPN != 2 || e.Runtime != 0 || e.Owner != "unknown" {
		t.Errorf("entry 2 = %+v", e)
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3"), 8); err == nil {
		t.Error("short line should fail")
	}
	if _, err := ParseSWF(strings.NewReader("a b c d e f g h i j k"), 8); err == nil {
		t.Error("non-numeric fields should fail")
	}
	if _, err := ParseSWF(strings.NewReader(""), 0); err == nil {
		t.Error("bad coresPerNode should fail")
	}
	if got, err := ParseSWF(strings.NewReader("; only comments\n\n"), 8); err != nil || len(got) != 0 {
		t.Errorf("comment-only trace: %v %v", got, err)
	}
}

func TestScaleTrace(t *testing.T) {
	in := []TraceEntry{{At: 10 * time.Second, Runtime: 100 * time.Second, Walltime: 200 * time.Second}}
	out := ScaleTrace(in, 0.01)
	if out[0].At != 100*time.Millisecond || out[0].Runtime != time.Second || out[0].Walltime != 2*time.Second {
		t.Fatalf("scaled = %+v", out[0])
	}
	// Original untouched.
	if in[0].At != 10*time.Second {
		t.Fatal("ScaleTrace mutated its input")
	}
}

func TestSWFTraceReplays(t *testing.T) {
	entries, err := ParseSWF(strings.NewReader(sampleSWF), 8)
	if err != nil {
		t.Fatal(err)
	}
	scaled := ScaleTrace(entries, 0.001) // milliseconds instead of seconds
	for _, e := range scaled {
		if e.Runtime > time.Second {
			t.Fatalf("scaling failed: %+v", e)
		}
	}
}

// parseSWFFields is the parser ParseSWF replaced, kept as the reference
// the in-place one is fuzzed against: a string per line, strings.Fields,
// a Sprintf per name and owner.
func parseSWFFields(r io.Reader, coresPerNode int) ([]TraceEntry, error) {
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("workload: ParseSWF with coresPerNode %d", coresPerNode)
	}
	var out []TraceEntry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 11 {
			return nil, fmt.Errorf("workload: swf line %d: %d fields, want >= 11", lineNo, len(fields))
		}
		get := func(i int) (int64, error) {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("workload: swf line %d field %d: %w", lineNo, i+1, err)
			}
			return v, nil
		}
		jobNum, err := get(0)
		if err != nil {
			return nil, err
		}
		submit, err := get(1)
		if err != nil {
			return nil, err
		}
		runSec, err := get(3)
		if err != nil {
			return nil, err
		}
		procs, err := get(4)
		if err != nil {
			return nil, err
		}
		if procs <= 0 {
			if procs, err = get(7); err != nil { // requested processors
				return nil, err
			}
		}
		reqSec, err := get(8)
		if err != nil {
			return nil, err
		}
		uid := int64(-1)
		if len(fields) > 11 {
			uid, _ = strconv.ParseInt(fields[11], 10, 64)
		}

		if runSec < 0 {
			runSec = 0
		}
		if procs <= 0 {
			procs = 1
		}
		if reqSec <= 0 {
			reqSec = runSec
		}
		nodes := int((procs + int64(coresPerNode) - 1) / int64(coresPerNode))
		if nodes < 1 {
			nodes = 1
		}
		ppn := int((procs + int64(nodes) - 1) / int64(nodes))
		owner := "unknown"
		if uid >= 0 {
			owner = fmt.Sprintf("user%d", uid)
		}
		out = append(out, TraceEntry{
			At:       time.Duration(submit) * time.Second,
			Name:     fmt.Sprintf("swf-%d", jobNum),
			Owner:    owner,
			Nodes:    nodes,
			PPN:      ppn,
			Runtime:  time.Duration(runSec) * time.Second,
			Walltime: time.Duration(reqSec) * time.Second,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: swf scan: %w", err)
	}
	return out, nil
}

// FuzzParseSWF holds ParseSWF to the reference parser on any input:
// the same entries, or the same rejection — line number, field number
// and cause included. Neither may panic.
func FuzzParseSWF(f *testing.F) {
	const line = "1 0 0 10 4 -1 -1 4 20 -1 1 2 1 -1 1 1 -1 -1"
	for _, seed := range []string{
		sampleSWF,
		"1 2 3",                 // short line
		"a b c d e f g h i j k", // non-numeric fields
		"",
		"; only comments\n\n",
		line + "\n1 0 0 x 4 -1 -1 4 20 -1 1\n", // a non-numeric field on line 2
		strings.ReplaceAll(sampleSWF, "\n", "\r\n"),
		line + "\n" + strings.Repeat("7", 1<<20) + "\n",         // a line no scanner buffer holds
		"1 0 0 10 0 -1 -1 0 -5 -1 1 99999999999999999999 1",     // no processors, a uid out of range
		"\u00a01\u20280\t0 10\v4\f-1 -1 4 20 -1 1\u0085x\u3000", // white space beyond ASCII
		"1 0 0 10 4 -1 -1 4 20 -1 \xff\xfe 3",                   // invalid UTF-8 inside a field
		"  ;1 0 0 10 4 -1 -1 4 20 -1 1 2",                       // an indented comment
		"-9223372036854775808 9223372036854775807 0 9223372036854775807 9223372036854775807 0 0 1 1 0 0 0",
		strings.Repeat("0", 40) + "1 0 0 10 4 -1 -1 4 20 -1 1 2", // a field too long for the stack
	} {
		f.Add(seed, 8)
	}
	f.Fuzz(func(t *testing.T, text string, coresPerNode int) {
		got, gotErr := ParseSWF(strings.NewReader(text), coresPerNode)
		want, wantErr := parseSWFFields(strings.NewReader(text), coresPerNode)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("ParseSWF fails with %v, the reference with %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseSWF gives %+v, the reference %+v", got, want)
		}
	})
}

// A parsed line costs its entry's name and its share of the result
// slice; the reference paid a string for the line, the field slice and
// two Sprintfs on top.
func BenchmarkParseSWF(b *testing.B) {
	var sb strings.Builder
	for j := 0; j < 16384; j++ {
		fmt.Fprintf(&sb, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d -1 -1 -1 -1 -1 -1\n", j+1, j/8, 1+j%8, 1+j%16, 1+j%16, 9+j%8, j%16)
	}
	text := sb.String()
	for _, p := range []struct {
		name  string
		parse func(io.Reader, int) ([]TraceEntry, error)
	}{{"in-place", ParseSWF}, {"reference", parseSWFFields}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, err := p.parse(strings.NewReader(text), 8); err != nil || len(got) != 16384 {
					b.Fatalf("%d entries, %v", len(got), err)
				}
			}
		})
	}
}
