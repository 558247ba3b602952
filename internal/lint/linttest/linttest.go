// Package linttest is a standard-library reimplementation of the
// golang.org/x/tools/go/analysis/analysistest contract used by the
// daclint analyzer tests: fixture packages live under
// testdata/src/<pkg>, and every line that should produce a finding
// carries a trailing comment of the form
//
//	start := time.Now() // want `wall-clock time\.Now`
//
// where the backquoted (or double-quoted) text is a regular
// expression the diagnostic message must match. Lines without a want
// comment must stay clean; unmatched wants and unexpected
// diagnostics both fail the test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

var wantRe = regexp.MustCompile("//\\s*want\\s+(`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\")")

// Run loads each named fixture package from testdata/src and applies
// the analyzers to it, comparing diagnostics against the fixtures'
// want comments. The analyzers run through lint.Run, so findings are
// filtered and ordered exactly as cmd/daclint sees them.
func Run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkgname := range pkgs {
		pkg, err := loadFixture(testdata, pkgname)
		if err != nil {
			t.Errorf("loading fixture %s: %v", pkgname, err)
			continue
		}
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			t.Errorf("running analyzers on %s: %v", pkgname, err)
			continue
		}
		check(t, pkg, diags)
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func check(t *testing.T, pkg *lint.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := m[2]
					if m[3] != "" {
						pat = m[3]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", fname, pat, err)
						continue
					}
					wants = append(wants, &want{file: fname, line: pkg.Fset.Position(c.Pos()).Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		var hit *want
		for _, w := range wants {
			if !w.matched && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", p.Filename, p.Line, d.Category, d.Message)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// Load parses and type-checks one fixture package from
// testdata/src/<pkgname>, for tests that inspect diagnostics
// directly instead of through want comments.
func Load(testdata, pkgname string) (*lint.Package, error) {
	return loadFixture(testdata, pkgname)
}

// loadFixture parses and type-checks testdata/src/<pkgname>. Fixture
// packages may import the standard library and sibling fixture
// packages (by bare directory name).
func loadFixture(testdata, pkgname string) (*lint.Package, error) {
	fset := token.NewFileSet()
	l := &fixtureLoader{testdata: testdata, fset: fset, loaded: map[string]*lint.Package{}}
	l.std = importer.ForCompiler(fset, "source", nil)
	return l.load(pkgname)
}

type fixtureLoader struct {
	testdata string
	fset     *token.FileSet
	std      types.Importer
	loaded   map[string]*lint.Package
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if strings.Contains(path, ".") || strings.Contains(path, "/") {
		return l.std.Import(path)
	}
	if _, err := os.Stat(filepath.Join(l.testdata, "src", path)); err == nil {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(pkgname string) (*lint.Package, error) {
	if pkg, ok := l.loaded[pkgname]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.testdata, "src", pkgname)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgname, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgname, err)
	}
	pkg := &lint.Package{Path: pkgname, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.loaded[pkgname] = pkg
	return pkg, nil
}
