package dac_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/pbs"
	"repro/internal/telemetry"
)

func TestCollectiveGetDistributesShares(t *testing.T) {
	var mu sync.Mutex
	gotCounts := map[int]int{} // rank -> handles obtained
	clientIDs := map[int]int{}
	runJob(t, fastParams(2, 6), pbs.JobSpec{
		Name: "coll", Owner: "u", Nodes: 2, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			// Rank 0 wants 1, rank 1 wants 3.
			want := 1
			if env.Rank == 1 {
				want = 3
			}
			cid, hs, err := ac.CollectiveGet(want)
			if err != nil {
				t.Errorf("CollectiveGet rank %d: %v", env.Rank, err)
				return
			}
			// All shares usable.
			for _, h := range hs {
				if _, err := ac.MemAlloc(h, 64); err != nil {
					t.Errorf("MemAlloc on %s: %v", h.Host(), err)
					return
				}
			}
			mu.Lock()
			gotCounts[env.Rank] = len(hs)
			clientIDs[env.Rank] = cid
			mu.Unlock()
			// Release collectively.
			if err := ac.CollectiveFree(cid); err != nil {
				t.Errorf("CollectiveFree rank %d: %v", env.Rank, err)
			}
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if gotCounts[0] != 1 || gotCounts[1] != 3 {
		t.Errorf("shares = %v, want rank0:1 rank1:3", gotCounts)
	}
	if clientIDs[0] != clientIDs[1] {
		t.Errorf("client ids differ: %v", clientIDs)
	}
}

func TestCollectiveGetAllOrNothing(t *testing.T) {
	// Total request (2+3=5) exceeds the 2 free accelerators: every
	// rank must be rejected and no accelerator allocated.
	var mu sync.Mutex
	rejections := 0
	runJob(t, fastParams(2, 4), pbs.JobSpec{
		Name: "collrej", Owner: "u", Nodes: 2, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			want := 2
			if env.Rank == 1 {
				want = 3
			}
			if _, _, err := ac.CollectiveGet(want); err != nil {
				mu.Lock()
				rejections++
				mu.Unlock()
			}
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if rejections != 2 {
		t.Errorf("rejections = %d, want 2 (all-or-nothing)", rejections)
	}
}

func TestCollectiveGetZeroShare(t *testing.T) {
	// A rank may participate with count 0 and receive nothing while
	// the other rank gets its share.
	var mu sync.Mutex
	got := map[int]int{}
	runJob(t, fastParams(2, 4), pbs.JobSpec{
		Name: "collzero", Owner: "u", Nodes: 2, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			want := 0
			if env.Rank == 1 {
				want = 2
			}
			cid, hs, err := ac.CollectiveGet(want)
			if err != nil {
				t.Errorf("CollectiveGet: %v", err)
				return
			}
			mu.Lock()
			got[env.Rank] = len(hs)
			mu.Unlock()
			if err := ac.CollectiveFree(cid); err != nil {
				t.Errorf("CollectiveFree: %v", err)
			}
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 0 || got[1] != 2 {
		t.Errorf("shares = %v", got)
	}
}

// TestCollectiveSetReleasedOnlyCollectively documents the paper's
// contract (§III-D): all compute nodes obtain the same client-id, so
// an individual AC_Free from one node strands the others — the second
// node's release of the shared id fails at the server.
func TestCollectiveSetReleasedOnlyCollectively(t *testing.T) {
	var mu sync.Mutex
	errs := map[int]error{}
	runJob(t, fastParams(2, 4), pbs.JobSpec{
		Name: "collindiv", Owner: "u", Nodes: 2, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			cid, _, err := ac.CollectiveGet(1)
			if err != nil {
				t.Errorf("CollectiveGet: %v", err)
				return
			}
			// Both nodes (wrongly) free individually; the server
			// accepts only the first release of the shared client-id.
			err = ac.Free(cid)
			mu.Lock()
			errs[env.Rank] = err
			mu.Unlock()
		},
	})
	mu.Lock()
	defer mu.Unlock()
	failures := 0
	for _, err := range errs {
		if err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("individual frees of a collective set: %d failures, want exactly 1 (%v)", failures, errs)
	}
}

func TestClusterSmoke(t *testing.T) {
	p := cluster.Default()
	if p.ComputeNodes != 1 || p.Accelerators != 6 {
		t.Fatalf("default shape = %d CN, %d AC", p.ComputeNodes, p.Accelerators)
	}
	err := cluster.Run(fastParams(2, 2), func(c *cluster.Cluster, client *pbs.Client) {
		if got := len(c.ComputeNodeNames()); got != 2 {
			t.Errorf("CNs = %d", got)
		}
		if got := len(c.AcceleratorNames()); got != 2 {
			t.Errorf("ACs = %d", got)
		}
		nodes, err := client.Nodes()
		if err != nil || len(nodes) != 4 {
			t.Errorf("Nodes: %v %v", nodes, err)
		}
		if c.DAC.Device(cluster.ACName(0)) == nil {
			t.Error("accelerator has no device")
		}
		if c.DAC.Device(cluster.CNName(0)) != nil {
			t.Error("compute node should have no device")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A collectively acquired set is booked like one from AC_Get: attached
// when the grant's daemons have merged, held from then until its
// release. Two compute nodes each take one accelerator at 10 s and hold
// it 0.1 s, so dac.attached ends at 0 and dac.util_dynamic charges 0.2 s
// (with the set stamped at virtual time 0, -2 and 20.35 s).
func TestCollectiveSetIsHeldFromItsGet(t *testing.T) {
	p := fastParams(2, 4)
	p.Telemetry = telemetry.New()
	runJob(t, p, pbs.JobSpec{
		Name: "collheld", Owner: "u", Nodes: 2, PPN: 1, ACPN: 1, Walltime: time.Minute,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			ctx, _ := dac.FromEnv(env)
			ctx.Sim.Sleep(10*time.Second - ctx.Sim.Now())
			cid, _, err := ac.CollectiveGet(1)
			if err != nil {
				t.Errorf("CollectiveGet: %v", err)
				return
			}
			ctx.Sim.Sleep(100 * time.Millisecond)
			if err := ac.CollectiveFree(cid); err != nil {
				t.Errorf("CollectiveFree: %v", err)
			}
		},
	})
	if got := p.Telemetry.Gauge("dac.attached").Value(); got != 0 {
		t.Errorf("dac.attached ends at %v, want 0", got)
	}
	if got := p.Telemetry.Occupancy("dac.util_dynamic").Busy(); got != 200*time.Millisecond {
		t.Errorf("dac.util_dynamic charged %v, want 200ms", got)
	}
}
