package dac_test

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dac"
	"repro/internal/gpusim"
	"repro/internal/pbs"
)

// fastParams shrinks the calibrated latencies so tests run through
// many scenarios quickly while keeping every protocol step.
func fastParams(cns, acs int) cluster.Params {
	p := cluster.Default()
	p.ComputeNodes = cns
	p.Accelerators = acs
	p.Maui.CycleInterval = 50 * time.Millisecond
	p.Maui.CycleOverhead = 8 * time.Millisecond
	p.Maui.PerJobCost = 2 * time.Millisecond
	p.Maui.DynPerReqCost = 2 * time.Millisecond
	p.MPI.ProcStartup = 8 * time.Millisecond
	p.MPI.ConnectOverhead = time.Millisecond
	p.MPI.MergeOverhead = time.Millisecond
	p.MPI.SpawnOverhead = 2 * time.Millisecond
	p.DAC.DaemonLaunch = 5 * time.Millisecond
	p.DAC.DaemonInit = 5 * time.Millisecond
	p.Mom.DynJoinCost = 5 * time.Millisecond
	p.Server.Processing = time.Millisecond
	return p
}

// runJob submits a single DAC job and waits for it; script errors are
// reported through t.
func runJob(t *testing.T, p cluster.Params, spec pbs.JobSpec) pbs.JobInfo {
	t.Helper()
	var info pbs.JobInfo
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		id, err := client.Submit(spec)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err = client.Wait(id)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return info
}

func TestInitConnectsStaticAccelerators(t *testing.T) {
	var handles []*dac.Accel
	var stats dac.Stats
	var mu sync.Mutex
	runJob(t, fastParams(1, 3), pbs.JobSpec{
		Name: "init", Owner: "u", Nodes: 1, PPN: 1, ACPN: 3, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, hs, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			mu.Lock()
			handles = hs
			stats = ac.Stats()
			mu.Unlock()
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if len(handles) != 3 {
		t.Fatalf("handles = %d, want 3", len(handles))
	}
	if stats.InitWaiting <= 0 || stats.InitConnect <= 0 {
		t.Errorf("stats = %+v; both phases should take time", stats)
	}
	if stats.InitWaiting <= stats.InitConnect {
		t.Errorf("waiting (%v) should dominate connect (%v) as in Figure 7(a)", stats.InitWaiting, stats.InitConnect)
	}
}

func TestInitWaitingGrowsWithAcceleratorCount(t *testing.T) {
	waiting := func(acpn int) time.Duration {
		var w time.Duration
		var mu sync.Mutex
		runJob(t, fastParams(1, 6), pbs.JobSpec{
			Name: "init", Owner: "u", Nodes: 1, PPN: 1, ACPN: acpn, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				ac, _, err := dac.Init(env)
				if err != nil {
					t.Errorf("Init: %v", err)
					return
				}
				defer ac.Finalize()
				mu.Lock()
				w = ac.Stats().InitWaiting
				mu.Unlock()
			},
		})
		mu.Lock()
		defer mu.Unlock()
		return w
	}
	w1, w6 := waiting(1), waiting(6)
	if w6 <= w1 {
		t.Fatalf("waiting(6)=%v should exceed waiting(1)=%v", w6, w1)
	}
}

func TestComputeRoundTrip(t *testing.T) {
	runJob(t, fastParams(1, 1), pbs.JobSpec{
		Name: "vecadd", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, hs, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			h := hs[0]
			const n = 64
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i], b[i] = float64(i), float64(2*i)
			}
			ap, err := ac.MemAlloc(h, 8*n)
			if err != nil {
				t.Errorf("MemAlloc: %v", err)
				return
			}
			bp, _ := ac.MemAlloc(h, 8*n)
			cp, _ := ac.MemAlloc(h, 8*n)
			if err := ac.MemCpyToDevice(h, ap, 0, gpusim.EncodeFloat64s(a)); err != nil {
				t.Errorf("MemCpyToDevice: %v", err)
				return
			}
			ac.MemCpyToDevice(h, bp, 0, gpusim.EncodeFloat64s(b))
			if err := ac.KernelRun(h, "vecadd", [3]int{1}, [3]int{n}, cp, ap, bp, n); err != nil {
				t.Errorf("KernelRun: %v", err)
				return
			}
			raw, err := ac.MemCpyFromDevice(h, cp, 0, 8*n)
			if err != nil {
				t.Errorf("MemCpyFromDevice: %v", err)
				return
			}
			for i, v := range gpusim.DecodeFloat64s(raw) {
				if v != 3*float64(i) {
					t.Errorf("c[%d] = %v, want %v", i, v, 3*float64(i))
					return
				}
			}
			if err := ac.MemFree(h, ap); err != nil {
				t.Errorf("MemFree: %v", err)
			}
		},
	})
}

func TestDynamicGetAndUse(t *testing.T) {
	var stats dac.Stats
	var mu sync.Mutex
	runJob(t, fastParams(1, 4), pbs.JobSpec{
		Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			clientID, hs, err := ac.Get(2)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if clientID <= 0 || len(hs) != 2 {
				t.Errorf("Get = %d, %v", clientID, hs)
				return
			}
			// The dynamically obtained accelerators are usable.
			for _, h := range hs {
				p, err := ac.MemAlloc(h, 1024)
				if err != nil {
					t.Errorf("MemAlloc on dynamic %s: %v", h.Host(), err)
					return
				}
				if err := ac.MemCpyToDevice(h, p, 0, []byte{1, 2, 3}); err != nil {
					t.Errorf("copy to dynamic: %v", err)
					return
				}
			}
			// The static accelerator still works after the merge.
			if len(ac.Handles()) != 3 {
				t.Errorf("Handles = %d, want 3", len(ac.Handles()))
			}
			mu.Lock()
			stats = ac.Stats()
			mu.Unlock()
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if len(stats.Gets) != 1 {
		t.Fatalf("Gets = %+v", stats.Gets)
	}
	g := stats.Gets[0]
	if g.Rejected || g.Batch <= 0 || g.MPI <= 0 {
		t.Errorf("GetStat = %+v", g)
	}
	if g.Batch <= g.MPI {
		t.Errorf("batch share (%v) should dominate MPI share (%v) as in Figure 7(b)", g.Batch, g.MPI)
	}
}

// Handles lists the static accelerator and two dynamic sets in rank
// order on every call. The handles sit in a map, and a small map
// iterates in insertion order rotated by a random slot, so without the
// sort twenty calls would all come out in order only by a chance of
// (5/8)^20.
func TestHandlesAreInRankOrderAcrossTwoSets(t *testing.T) {
	runJob(t, fastParams(1, 5), pbs.JobSpec{
		Name: "dyn", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, want, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			for i := 0; i < 2; i++ {
				_, hs, err := ac.Get(2)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				want = append(want, hs...)
			}
			for i := 0; i < 20; i++ {
				if got := ac.Handles(); !slices.Equal(got, want) {
					t.Errorf("Handles %v, want %v", got, want)
					return
				}
			}
		},
	})
}

func TestGetRejectedApplicationContinues(t *testing.T) {
	continued := false
	var mu sync.Mutex
	runJob(t, fastParams(1, 2), pbs.JobSpec{
		Name: "rej", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, hs, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			if _, _, err := ac.Get(5); err == nil {
				t.Error("Get(5) with 1 free accelerator should be rejected")
				return
			}
			// Existing accelerator still serves requests.
			if _, err := ac.MemAlloc(hs[0], 64); err != nil {
				t.Errorf("static accelerator broken after rejection: %v", err)
				return
			}
			mu.Lock()
			continued = true
			mu.Unlock()
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if !continued {
		t.Fatal("application did not continue after rejection")
	}
}

func TestFreeReleasesAndHandlesRemap(t *testing.T) {
	runJob(t, fastParams(1, 3), pbs.JobSpec{
		Name: "free", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, _, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			setA, hsA, err := ac.Get(1)
			if err != nil {
				t.Errorf("Get A: %v", err)
				return
			}
			setB, hsB, err := ac.Get(1)
			if err != nil {
				t.Errorf("Get B: %v", err)
				return
			}
			if err := ac.Free(setA); err != nil {
				t.Errorf("Free A: %v", err)
				return
			}
			// B's handle must survive A's release (rank remap).
			if _, err := ac.MemAlloc(hsB[0], 128); err != nil {
				t.Errorf("B handle broken after freeing A: %v", err)
				return
			}
			// A's handle is gone.
			if _, err := ac.MemAlloc(hsA[0], 128); !errors.Is(err, dac.ErrUnknownHandle) {
				t.Errorf("A handle should be invalid, got %v", err)
				return
			}
			// The freed accelerator can be re-acquired.
			if _, hs, err := ac.Get(1); err != nil || len(hs) != 1 {
				t.Errorf("re-Get after free: %v %v", hs, err)
				return
			}
			if err := ac.Free(setB); err != nil {
				t.Errorf("Free B: %v", err)
			}
			if err := ac.Free(setB); err == nil {
				t.Error("double Free should fail")
			}
		},
	})
}

func TestFinalizeBlocksFurtherUse(t *testing.T) {
	runJob(t, fastParams(1, 1), pbs.JobSpec{
		Name: "fin", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, hs, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			if err := ac.Finalize(); err != nil {
				t.Errorf("Finalize: %v", err)
				return
			}
			if err := ac.Finalize(); !errors.Is(err, dac.ErrFinalized) {
				t.Errorf("double Finalize: %v", err)
			}
			if _, err := ac.MemAlloc(hs[0], 64); !errors.Is(err, dac.ErrFinalized) {
				t.Errorf("op after Finalize: %v", err)
			}
			if _, _, err := ac.Get(1); !errors.Is(err, dac.ErrFinalized) {
				t.Errorf("Get after Finalize: %v", err)
			}
		},
	})
}

func TestInitWithoutStaticAccelerators(t *testing.T) {
	runJob(t, fastParams(1, 2), pbs.JobSpec{
		Name: "zero", Owner: "u", Nodes: 1, PPN: 1, ACPN: 0, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, hs, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			if len(hs) != 0 {
				t.Errorf("handles = %v", hs)
				return
			}
			// Dynamic growth from zero.
			_, got, err := ac.Get(2)
			if err != nil || len(got) != 2 {
				t.Errorf("Get from zero: %v %v", got, err)
				return
			}
			if _, err := ac.MemAlloc(got[0], 64); err != nil {
				t.Errorf("MemAlloc: %v", err)
			}
		},
	})
}

func TestComputeErrorsPropagate(t *testing.T) {
	p := fastParams(1, 1)
	p.DAC.GPUMemBytes = 1024
	runJob(t, p, pbs.JobSpec{
		Name: "err", Owner: "u", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Second,
		Script: func(env *pbs.JobEnv) {
			ac, hs, err := dac.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			h := hs[0]
			if _, err := ac.MemAlloc(h, 4096); err == nil || !strings.Contains(err.Error(), "out of device memory") {
				t.Errorf("OOM err = %v", err)
			}
			if err := ac.KernelRun(h, "no-such-kernel", [3]int{1}, [3]int{1}); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
				t.Errorf("unknown kernel err = %v", err)
			}
			if err := ac.MemFree(h, gpusim.Ptr(999)); err == nil {
				t.Error("bad pointer free should fail")
			}
		},
	})
}

func TestConcurrentAcceleratorsOverlap(t *testing.T) {
	// Two kernels on two accelerators launched from two actors should
	// overlap: total elapsed ~ one kernel, not two.
	gpusim.RegisterKernel("slowburn", func(ctx *gpusim.KernelCtx) (gpusim.Cost, error) {
		return gpusim.Cost{FLOPs: 515e9 / 10}, nil // ~100ms on the default device
	})
	var elapsed time.Duration
	var mu sync.Mutex
	p := fastParams(1, 2)
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		id, err := client.Submit(pbs.JobSpec{
			Name: "overlap", Owner: "u", Nodes: 1, PPN: 2, ACPN: 2, Walltime: time.Second,
			Script: func(env *pbs.JobEnv) {
				ac, hs, err := dac.Init(env)
				if err != nil {
					t.Errorf("Init: %v", err)
					return
				}
				defer ac.Finalize()
				start := c.Sim.Now()
				done := c.Sim.NewGate("overlap")
				var dm sync.Mutex
				left := 2
				for _, h := range hs {
					h := h
					c.Sim.Go("offload", func() {
						if err := ac.KernelRun(h, "slowburn", [3]int{1}, [3]int{1}); err != nil {
							t.Errorf("KernelRun: %v", err)
						}
						dm.Lock()
						left--
						dm.Unlock()
						done.Broadcast()
					})
				}
				dm.Lock()
				for left > 0 {
					done.Wait(&dm)
				}
				dm.Unlock()
				mu.Lock()
				elapsed = c.Sim.Now() - start
				mu.Unlock()
			},
		})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		client.Wait(id)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if elapsed <= 0 {
		t.Fatal("kernels never ran")
	}
	// One kernel is ~100ms; two overlapped must be well under 180ms.
	if elapsed > 180*time.Millisecond {
		t.Errorf("two parallel kernels took %v; no overlap", elapsed)
	}
}
