package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestHelpListsAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"help"}, &out, &errb); code != 0 {
		t.Fatalf("help exit %d", code)
	}
	for _, name := range []string{"walltime", "maporder", "spanbalance", "digestdet"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("help output missing %q", name)
		}
	}
}

// daclint takes three argument forms: help, <module-dir> and -json
// <module-dir>. Anything else is a usage error (exit 2), including the
// go vet tool handshakes it no longer speaks.
func TestRejectsOtherArgumentForms(t *testing.T) {
	for _, args := range [][]string{nil, {"-json"}, {"-V=full"}, {"-flags"}, {"-json", ".", "extra"}, {".", "extra"}} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "usage:") {
			t.Errorf("run(%q) exit %d, stderr %q; want 2 and the usage", args, code, errb.String())
		}
	}
}

// writeModule writes a one-package module into dir whose only file is
// src.
func writeModule(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "simstuff"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "simstuff", "s.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

const wallclockSrc = `package simstuff

import "time"

func Stamp() time.Time { return time.Now() }
`

// sameFindings runs the module at dir once per rendering and checks
// that the text lines and the -json report name the same findings
// (file:line:analyzer) with the same exit code.
func sameFindings(t *testing.T, dir string) {
	t.Helper()
	var text, js, errb strings.Builder
	textCode := run([]string{dir}, &text, &errb)
	jsonCode := run([]string{"-json", dir}, &js, &errb)
	if textCode != jsonCode {
		t.Fatalf("text exit %d, -json exit %d; stderr %s", textCode, jsonCode, errb.String())
	}
	var fromText []string
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ": ", 3)
		if len(parts) != 3 {
			t.Fatalf("text finding %q is not file:line:col: analyzer: message", line)
		}
		loc := parts[0][:strings.LastIndex(parts[0], ":")] // drop the column
		fromText = append(fromText, loc+":"+parts[1])
	}
	var rep report
	if err := json.Unmarshal([]byte(js.String()), &rep); err != nil {
		t.Fatalf("-json output is not the report schema: %v\n%s", err, js.String())
	}
	var fromJSON []string
	for _, f := range rep.Findings {
		fromJSON = append(fromJSON, fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Analyzer))
	}
	sort.Strings(fromText)
	sort.Strings(fromJSON)
	if strings.Join(fromText, "\n") != strings.Join(fromJSON, "\n") {
		t.Errorf("renderings disagree\n--- text ---\n%s\n--- json ---\n%s", strings.Join(fromText, "\n"), strings.Join(fromJSON, "\n"))
	}
}

func TestStandaloneModule(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, wallclockSrc)
	var out, errb strings.Builder
	code := run([]string{dir}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stdout %s stderr %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "walltime") {
		t.Errorf("standalone run missed the walltime finding: %s", out.String())
	}
	sameFindings(t, dir)

	// Taking the time from the caller (the simulation's clock) makes
	// the same module pass clean.
	writeModule(t, dir, `package simstuff

import "time"

func Stamp(now time.Duration) time.Duration { return now }
`)
	out.Reset()
	errb.Reset()
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("fixed module exit %d; stdout %s stderr %s", code, out.String(), errb.String())
	}
	sameFindings(t, dir)
}

// TestStandaloneJSON pins the -json report schema: per-analyzer
// counts with zeroes for quiet analyzers, the findings list, and the
// runtime the CI lint job archives.
func TestStandaloneJSON(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, wallclockSrc)
	var out, errb strings.Builder
	if code := run([]string{"-json", dir}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stdout %s stderr %s", code, out.String(), errb.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not the report schema: %v\n%s", err, out.String())
	}
	if rep.Packages != 1 {
		t.Errorf("packages = %d, want 1", rep.Packages)
	}
	if rep.Analyzers["walltime"] != 1 {
		t.Errorf("analyzers[walltime] = %d, want 1", rep.Analyzers["walltime"])
	}
	// Quiet analyzers must still be present, with explicit zeroes.
	for _, name := range []string{"maporder", "spanbalance", "digestdet"} {
		if n, ok := rep.Analyzers[name]; !ok || n != 0 {
			t.Errorf("analyzers[%s] = %d, present=%v; want an explicit 0", name, n, ok)
		}
	}
	if len(rep.Analyzers) != 4 {
		t.Errorf("analyzers has %d keys, want the four suite names: %v", len(rep.Analyzers), rep.Analyzers)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "walltime" || rep.Findings[0].Line != 5 {
		t.Errorf("findings = %+v, want one walltime finding at line 5", rep.Findings)
	}
	if rep.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms = %v, want > 0", rep.ElapsedMS)
	}
	sameFindings(t, dir)
}
