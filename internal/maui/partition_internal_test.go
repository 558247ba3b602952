package maui

import (
	"testing"

	"repro/internal/pbs"
)

// Partition pi of n owns the table indices i with i%n == pi, so every
// partition's capacity mix mirrors the whole cluster and no node is
// lost or held twice.
func TestPartitionPoolsDealRoundRobin(t *testing.T) {
	ns := nodes(8, 4) // table order: cn0..cn7, ac0..ac3
	for _, nParts := range []int{3, 2} {
		var ps []*pools
		for pi := 0; pi < nParts; pi++ {
			ps = append(ps, builtPools(ns, pi, nParts))
		}
		freeACs := 0
		for pi, p := range ps {
			freeACs += p.nACs
			for i := range ns {
				if ns[i].Type != pbs.ComputeNode {
					continue
				}
				want := 0
				if i%nParts == pi {
					want = 8
				}
				if got := p.freeCores(ns[i].Name); got != want {
					t.Errorf("%d partitions: partition %d holds %d free cores of %s, want %d",
						nParts, pi, got, ns[i].Name, want)
				}
			}
		}
		if freeACs != 4 {
			t.Errorf("%d partitions: free ACs across partitions = %d, want 4", nParts, freeACs)
		}
	}
}
