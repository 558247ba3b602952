package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// The slot is the lock (the sim package's "Discipline"): whatever a
// simulation builds — server, scheduler, fabric, MPI runtime, DAC
// library, devices — is touched only by that simulation's one running
// actor or callback, so none of it takes a mutex. This test holds the
// other half of the rule under the race detector: simulations on
// different goroutines share nothing unguarded. The paper figures and
// two ablations (device kernels from the process-wide registry among
// them) fan out over four trial workers with every observer attached,
// while a resident service instance runs on a goroutine of its own. A
// write to state two runs share without a lock is a race report, and
// the service run must read the same as one run alone.
func TestSimulationsShareNothingUnguarded(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	p := cluster.Default()
	serve := func() (ServePoint, error) {
		return serveOne(p, 8, ServerFaithful, workload.ArrivalConfig{}, 2*time.Second, allObservers)
	}
	type served struct {
		pt  ServePoint
		err error
	}
	done := make(chan served, 1)
	go func() {
		pt, err := serve()
		done <- served{pt, err}
	}()
	figures := []struct {
		name string
		run  func() error
	}{
		{"7a", func() error { _, err := Fig7a(p, 2, 2, allObservers); return err }},
		{"7b", func() error { _, err := Fig7b(p, 2, 2, allObservers); return err }},
		{"8", func() error { _, err := Fig8(p, []int{4}, 2, allObservers); return err }},
		{"9", func() error { _, err := Fig9(p, 2, allObservers); return err }},
		{"double buffer", func() error { _, err := AblationDoubleBuffer(p, 4); return err }},
		{"partial alloc", func() error { _, err := AblationPartialAlloc(p); return err }},
	}
	for _, f := range figures {
		if err := f.run(); err != nil {
			t.Errorf("figure %s: %v", f.name, err)
		}
	}
	beside := <-done
	if beside.err != nil {
		t.Fatalf("service beside the figures: %v", beside.err)
	}
	alone, err := serve()
	if err != nil {
		t.Fatalf("service alone: %v", err)
	}
	b, a := beside.pt, alone
	if b.Submitted != a.Submitted || b.Completed != a.Completed || b.Makespan != a.Makespan || b.Dispatches != a.Dispatches {
		t.Fatalf("service beside the figures read %d/%d jobs in %v, %d events; alone %d/%d in %v, %d events",
			b.Completed, b.Submitted, b.Makespan, b.Dispatches, a.Completed, a.Submitted, a.Makespan, a.Dispatches)
	}
	if b.Submitted == 0 || b.Completed != b.Submitted {
		t.Fatalf("service completed %d of %d jobs", b.Completed, b.Submitted)
	}
}
