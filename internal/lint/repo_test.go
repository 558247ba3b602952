package lint_test

import (
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// repo is this module (the repository the test runs in), loaded and
// type-checked once per test binary by loadRepo.
var repo struct {
	once sync.Once
	root string
	pkgs []*lint.Package
	err  error
}

// loadRepo loads this module once per test binary; every test that
// walks the repository shares the packages and only reads them.
func loadRepo(t *testing.T) []*lint.Package {
	t.Helper()
	repo.once.Do(func() {
		if repo.root, repo.err = filepath.Abs(filepath.Join("..", "..")); repo.err == nil {
			repo.pkgs, repo.err = lint.LoadModule(repo.root)
		}
	})
	if repo.err != nil {
		t.Fatalf("loading module at %s: %v", repo.root, repo.err)
	}
	if len(repo.pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; loader lost the module", len(repo.pkgs), repo.root)
	}
	return repo.pkgs
}

// TestRepoPassesDaclint is the lint gate (scripts/lint.sh runs it
// alone, under a 30 s timeout): the full suite over every package of
// this repository with zero findings. A failure here means either a real determinism bug or a
// false positive to fix in the analyzer or its scope configuration.
func TestRepoPassesDaclint(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	suite := lint.Suite()
	for _, pkg := range loadRepo(t) {
		diags, err := lint.Run(pkg, suite)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d:%d: [%s] %s", p.Filename, p.Line, p.Column, d.Category, d.Message)
		}
	}
}

// TestRandomnessFlowsThroughSimRNG is the only check of the repo's
// randomness rule: no non-test package in this module imports
// math/rand or math/rand/v2 at all — every random stream is a sim.RNG,
// which is deterministic across Go releases and owned by its trial.
func TestRandomnessFlowsThroughSimRNG(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	for _, pkg := range loadRepo(t) {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || strings.HasPrefix(path, "math/rand/") {
					p := pkg.Fset.Position(imp.Pos())
					t.Errorf("%s:%d: %s imports %s; draw randomness from repro/internal/sim.RNG instead",
						p.Filename, p.Line, pkg.Path, path)
				}
			}
		}
	}
}

// TestLoaderPositionsAreReal guards the loader itself: diagnostics
// must carry positions inside this repository, not token.NoPos.
func TestLoaderPositionsAreReal(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs := loadRepo(t)
	var sim *lint.Package
	for _, pkg := range pkgs {
		if pkg.Path == "repro/internal/sim" {
			sim = pkg
		}
	}
	if sim == nil {
		t.Fatal("loader did not surface repro/internal/sim")
	}
	if len(sim.Files) == 0 || sim.Files[0].Pos() == token.NoPos {
		t.Fatal("loaded files carry no positions")
	}
	if !sim.Types.Complete() {
		t.Fatal("repro/internal/sim type-checked incompletely")
	}
}
