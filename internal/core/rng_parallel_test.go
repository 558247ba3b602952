package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Trial parallelism must never leak into random streams: every trial
// derives its own sim.RNG from its seed, so the sequence a trial
// draws is a pure function of the seed, not of which worker ran it or
// how many workers exist. internal/lint's
// TestRandomnessFlowsThroughSimRNG holds it statically (no math/rand
// import anywhere); here it is checked dynamically across
// SetParallelism levels.
func TestRNGStreamsIdenticalAcrossParallelism(t *testing.T) {
	const trials = 24
	const draws = 64

	sample := func(parallel int) [][]uint64 {
		old := Parallelism()
		defer SetParallelism(old)
		SetParallelism(parallel)
		out := make([][]uint64, trials)
		err := forEach(trials, func(i int) error {
			r := sim.NewRNG(uint64(i)*0x9e37 + 1)
			seq := make([]uint64, draws)
			for j := range seq {
				seq[j] = r.Uint64()
			}
			out[i] = seq
			return nil
		})
		if err != nil {
			t.Fatalf("forEach(parallel=%d): %v", parallel, err)
		}
		return out
	}

	serial := sample(1)
	for _, level := range []int{2, 4, 8} {
		got := sample(level)
		for i := range serial {
			for j := range serial[i] {
				if got[i][j] != serial[i][j] {
					t.Fatalf("trial %d draw %d differs at parallelism %d: %#x vs %#x",
						i, j, level, got[i][j], serial[i][j])
				}
			}
		}
	}
}

// Split streams must also be stable across parallelism: an actor that
// derives per-component generators (netsim links, jitter models) gets
// the same derived sequences no matter how trials are scheduled.
func TestRNGSplitStableUnderParallelism(t *testing.T) {
	derive := func(seed uint64) string {
		root := sim.NewRNG(seed)
		a, b := root.Split(), root.Split()
		return fmt.Sprintf("%x-%x-%x-%x", a.Uint64(), b.Uint64(), a.Uint64(), root.Uint64())
	}
	want := make([]string, 16)
	for i := range want {
		want[i] = derive(uint64(i) + 7)
	}

	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(8)
	got := make([]string, len(want))
	if err := forEach(len(want), func(i int) error {
		got[i] = derive(uint64(i) + 7)
		return nil
	}); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("derived stream %d differs under parallelism: %s vs %s", i, got[i], want[i])
		}
	}
}
