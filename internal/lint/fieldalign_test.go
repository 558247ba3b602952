package lint_test

import (
	"go/types"
	"sort"
	"testing"
)

// hotStructs are the structs on the simulator's per-message and
// per-cycle paths. The test pins their 64-bit layouts to the optimal
// size any field ordering can achieve, so a refactor cannot silently
// re-introduce reducible padding (the pass is manual, via
// types.Sizes; 8-byte gc layout as on amd64/arm64).
var hotStructs = map[string][]string{
	"repro/internal/netsim": {"LinkParams", "Message", "flight", "Stats", "Network", "pairState", "Endpoint"},
	"repro/internal/maui":   {"Params", "Stats", "Scheduler", "pools", "cnState"},
}

func roundUp(n, align int64) int64 { return (n + align - 1) / align * align }

// optimalSize returns the smallest size any field ordering of st can
// achieve: laying fields out by decreasing alignment leaves no
// internal padding (every Go type's size is a multiple of its
// alignment), so only the trailing round-up to the struct alignment
// remains — and that is identical for every ordering.
func optimalSize(sizes types.Sizes, st *types.Struct) int64 {
	type field struct{ size, align int64 }
	fields := make([]field, st.NumFields())
	var maxAlign int64 = 1
	for i := range fields {
		ft := st.Field(i).Type()
		fields[i] = field{sizes.Sizeof(ft), sizes.Alignof(ft)}
		if fields[i].align > maxAlign {
			maxAlign = fields[i].align
		}
	}
	sort.SliceStable(fields, func(i, j int) bool { return fields[i].align > fields[j].align })
	var off int64
	for _, f := range fields {
		off = roundUp(off, f.align) + f.size
	}
	return roundUp(off, maxAlign)
}

func TestHotPathStructLayoutsOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	// 64-bit gc layout; 32-bit targets pack differently and are not
	// what the benchmarks run on.
	sizes := types.SizesFor("gc", "amd64")
	byPath := make(map[string]bool)
	for _, pkg := range loadRepo(t) {
		want, ok := hotStructs[pkg.Path]
		if !ok {
			continue
		}
		byPath[pkg.Path] = true
		scope := pkg.Types.Scope()
		for _, name := range want {
			obj := scope.Lookup(name)
			if obj == nil {
				t.Errorf("%s: struct %s no longer exists; update hotStructs", pkg.Path, name)
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("%s.%s is no longer a struct", pkg.Path, name)
				continue
			}
			if got, best := sizes.Sizeof(st), optimalSize(sizes, st); got > best {
				t.Errorf("%s.%s: %d bytes, but an alignment-ordered layout fits in %d; reorder fields (wide first, narrow and bool fields together at the end)",
					pkg.Path, name, got, best)
			}
		}
	}
	for path := range hotStructs {
		if !byPath[path] {
			t.Errorf("package %s not loaded; update hotStructs", path)
		}
	}
}
