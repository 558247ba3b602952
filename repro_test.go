package repro_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestPublicAPIQuickstart drives the complete quickstart flow through
// the facade only: cluster up, qsub with acpn, AC_Init, offload,
// collect, AC_Finalize, qstat.
func TestPublicAPIQuickstart(t *testing.T) {
	params := repro.DefaultParams()
	var mu sync.Mutex
	var sum float64
	err := repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		spec, err := repro.ParseResourceRequest("nodes=1:ppn=2:acpn=1,walltime=00:01:00")
		if err != nil {
			t.Errorf("ParseResourceRequest: %v", err)
			return
		}
		spec.Name, spec.Owner = "api", "tester"
		spec.Script = func(env *repro.JobEnv) {
			ac, hs, err := repro.Init(env)
			if err != nil {
				t.Errorf("Init: %v", err)
				return
			}
			defer ac.Finalize()
			h := hs[0]
			const n = 32
			in := make([]float64, n)
			for i := range in {
				in[i] = float64(i)
			}
			ip, err := ac.MemAlloc(h, 8*n)
			if err != nil {
				t.Errorf("MemAlloc: %v", err)
				return
			}
			op, _ := ac.MemAlloc(h, 8)
			ac.MemCpyToDevice(h, ip, 0, repro.EncodeFloat64s(in))
			if err := ac.KernelRun(h, "reduce_sum", [3]int{1}, [3]int{n}, op, ip, n); err != nil {
				t.Errorf("KernelRun: %v", err)
				return
			}
			raw, err := ac.MemCpyFromDevice(h, op, 0, 8)
			if err != nil {
				t.Errorf("MemCpyFromDevice: %v", err)
				return
			}
			mu.Lock()
			sum = repro.DecodeFloat64s(raw)[0]
			mu.Unlock()
		}
		id, err := client.Submit(spec)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err := client.Wait(id)
		if err != nil || info.State != repro.JobCompleted {
			t.Errorf("Wait: %v %v", info.State, err)
		}
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := float64(31 * 32 / 2); sum != want {
		t.Fatalf("device sum = %v, want %v", sum, want)
	}
}

// TestPublicAPICustomKernel registers a kernel through the facade and
// launches it remotely.
func TestPublicAPICustomKernel(t *testing.T) {
	repro.RegisterKernel("api.fill7", func(ctx *repro.KernelCtx) (repro.KernelCost, error) {
		p := ctx.Args[0].(repro.DevicePtr)
		n := ctx.Args[1].(int)
		b, err := ctx.Bytes(p)
		if err != nil {
			return repro.KernelCost{}, err
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 7
		}
		copy(b, repro.EncodeFloat64s(vals))
		return repro.KernelCost{FLOPs: float64(n)}, nil
	})
	err := repro.RunCluster(repro.DefaultParams(), func(c *repro.Cluster, client *repro.Client) {
		id, _ := client.Submit(repro.JobSpec{
			Name: "k", Owner: "t", Nodes: 1, PPN: 1, ACPN: 1, Walltime: time.Minute,
			Script: func(env *repro.JobEnv) {
				ac, hs, err := repro.Init(env)
				if err != nil {
					t.Errorf("Init: %v", err)
					return
				}
				defer ac.Finalize()
				p, _ := ac.MemAlloc(hs[0], 8*4)
				if err := ac.KernelRun(hs[0], "api.fill7", [3]int{1}, [3]int{4}, p, 4); err != nil {
					t.Errorf("KernelRun: %v", err)
					return
				}
				raw, _ := ac.MemCpyFromDevice(hs[0], p, 0, 8*4)
				for i, v := range repro.DecodeFloat64s(raw) {
					if v != 7 {
						t.Errorf("out[%d] = %v", i, v)
					}
				}
			},
		})
		client.Wait(id)
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
}

// TestPublicAPIWorkloadAndAccounting exercises the workload, trace,
// and accounting surface of the facade.
func TestPublicAPIWorkloadAndAccounting(t *testing.T) {
	params := repro.DefaultParams()
	params.ComputeNodes = 2
	err := repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		gen := repro.NewWorkloadGenerator(c.Sim, 3, 20*time.Millisecond, repro.DefaultWorkloadClasses())
		trace := repro.RecordTrace(gen, 5)
		var buf strings.Builder
		if err := repro.SaveTrace(&buf, trace); err != nil {
			t.Errorf("SaveTrace: %v", err)
			return
		}
		loaded, err := repro.LoadTrace(strings.NewReader(buf.String()))
		if err != nil || len(loaded) != 5 {
			t.Errorf("LoadTrace: %v %d", err, len(loaded))
			return
		}
		ids, err := repro.ReplayTrace(c.Sim, client, loaded)
		if err != nil {
			t.Errorf("ReplayTrace: %v", err)
			return
		}
		for _, id := range ids {
			if _, err := client.Wait(id); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
		}
		if len(c.Server.AccountingLog()) < 10 { // Q+S+E per job
			t.Errorf("accounting log too small: %d records", len(c.Server.AccountingLog()))
		}
		cu, _ := c.Server.ClusterUtilization(c.Sim.Now())
		if cu <= 0 {
			t.Errorf("compute utilization = %v", cu)
		}
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
}

// TestPublicAPISWF parses and scales an SWF fragment via the facade.
func TestPublicAPISWF(t *testing.T) {
	entries, err := repro.ParseSWF(strings.NewReader("1 0 0 10 4 -1 -1 4 20 -1 1 2 1 -1 1 1 -1 -1\n"), 8)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ParseSWF: %v %d", err, len(entries))
	}
	scaled := repro.ScaleTrace(entries, 0.1)
	if scaled[0].Runtime != time.Second {
		t.Fatalf("scaled runtime = %v", scaled[0].Runtime)
	}
}

// TestPublicAPIFigureDrivers runs one tiny instance of each figure
// driver through the facade.
func TestPublicAPIFigureDrivers(t *testing.T) {
	p := repro.DefaultParams()
	if pts, err := repro.Fig7a(p, 1, 1, repro.Observers{}); err != nil || len(pts) != 1 {
		t.Fatalf("Fig7a: %v %v", pts, err)
	}
	if pts, err := repro.Fig9(p, 1, repro.Observers{}); err != nil || len(pts) != 3 {
		t.Fatalf("Fig9: %v %v", pts, err)
	}
	pts, err := repro.Fig7b(p, 1, 1, repro.Observers{})
	if err != nil || len(pts) != 1 {
		t.Fatalf("Fig7b: %v %v", pts, err)
	}
	var b strings.Builder
	if err := repro.Fig7bTable(pts).Render(&b); err != nil || !strings.Contains(b.String(), "dynamic request") {
		t.Fatalf("Fig7bTable: %v", err)
	}
}
