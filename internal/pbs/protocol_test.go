package pbs_test

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pbs"
	"repro/internal/sim"
)

// specEdges is paper §III written out by hand, once more, as the edges
// the two tables of protocol.go must hold — no more, no fewer.
var specEdges = []string{
	"job new->Q", // qsub
	"job Q->R",   // the scheduler's AllocCmd
	"job R->C",   // the mother superior's JobDoneMsg
	"job Q->D",   // qdel
	"job R->D",
	"job R->F",                       // a compute node died under it
	"request new->dynqueued",         // pbs_dynget
	"request dynqueued->scheduling",  // taken into the service window
	"request scheduling->forwarding", // DynAllocCmd with hosts: DYNJOIN sent
	"request forwarding->granted",    // DynAddAck
	"request scheduling->rejected",   // DynAllocCmd without, or the job or the hosts gone meanwhile
	"request dynqueued->rejected",    // its job ended, or the server restarted
	"request forwarding->rejected",
}

func sorted(edges []string) []string {
	out := slices.Clone(edges)
	sort.Strings(out)
	return out
}

func TestProtocolTablesHoldExactlyTheSpec(t *testing.T) {
	if got, want := sorted(pbs.TableEdgesForTest()), sorted(specEdges); !slices.Equal(got, want) {
		t.Errorf("tables hold\n  %q\nthe spec is\n  %q", got, want)
	}
}

// TestEveryTableEdgeIsTaken runs scenarios the package already has and
// counts the edges they take through the hook on advance: an edge of
// the tables that no scenario takes fails, so the tables cannot outgrow
// the code that uses them.
func TestEveryTableEdgeIsTaken(t *testing.T) {
	var mu sync.Mutex
	taken := make(map[string]int)
	stop := pbs.WatchEdgesForTest(func(edge string) {
		mu.Lock()
		taken[edge]++
		mu.Unlock()
	})
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"TestSubmitRunsAndCompletes", TestSubmitRunsAndCompletes},
		{"TestDeleteQueuedJob", TestDeleteQueuedJob},
		{"TestDynQueueProgressesPastDeletedJob", TestDynQueueProgressesPastDeletedJob},
		{"TestComputeNodeFailureFailsJob", TestComputeNodeFailureFailsJob},
		{"TestDynGetGrantsAndDynFreeReleases", TestDynGetGrantsAndDynFreeReleases},
		{"TestDynGetRejectedWhenShort", TestDynGetRejectedWhenShort},
		{"TestRestoreRejectsForwardingAndQueuedThroughTheTable", TestRestoreRejectsForwardingAndQueuedThroughTheTable},
	} {
		t.Run(sc.name, sc.run)
	}
	stop()
	mu.Lock()
	defer mu.Unlock()
	for _, edge := range pbs.TableEdgesForTest() {
		if taken[edge] == 0 {
			t.Errorf("no scenario takes %q: delete the edge or add the scenario", edge)
		}
		delete(taken, edge)
	}
	for edge, n := range taken {
		t.Errorf("%q taken %d times and in no table", edge, n)
	}
}

// TestEveryPairOutsideTheTablesIsRefused takes every pair of states of
// both machines, and every state from the unborn origin, on scratch
// records: advance goes through for the spec's edges and refuses every
// other pair — a panic under test, a protocol.edge breach and an
// Errors() entry in production.
func TestEveryPairOutsideTheTablesIsRefused(t *testing.T) {
	net := netsim.New(sim.New(), netsim.LinkParams{})
	srv := pbs.NewServer(net, pbs.ServerParams{})
	refusals := 0
	for _, job := range []bool{true, false} {
		for from := -1; from <= 4; from++ {
			for to := 0; to <= 4; to++ {
				edge, refused := srv.TryEdgeForTest(job, from, to)
				if legal := slices.Contains(specEdges, edge); refused == legal {
					t.Errorf("%s: refused %v, in the spec %v", edge, refused, legal)
				}
				if refused {
					refusals++
				}
			}
		}
	}
	if got := len(srv.Errors()); got != refusals || refusals != 2*6*5-len(specEdges) {
		t.Errorf("%d refusals, %d Errors() entries, want both %d", refusals, got, 2*6*5-len(specEdges))
	}
}
