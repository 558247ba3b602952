package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// Figure output must be byte-identical no matter how many OS threads
// the trials fan out over: the per-index result slots are reduced in
// index order, so the floating-point sums behind every mean add in
// the same order at any parallelism level.
func TestFiguresIdenticalAcrossParallelism(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	p := cluster.Default()

	SetParallelism(1)
	serial7a, err := Fig7a(p, 2, 3, cluster.Observers{})
	if err != nil {
		t.Fatalf("serial Fig7a: %v", err)
	}
	serial9, err := Fig9(p, 2, cluster.Observers{})
	if err != nil {
		t.Fatalf("serial Fig9: %v", err)
	}

	SetParallelism(4)
	par7a, err := Fig7a(p, 2, 3, cluster.Observers{})
	if err != nil {
		t.Fatalf("parallel Fig7a: %v", err)
	}
	par9, err := Fig9(p, 2, cluster.Observers{})
	if err != nil {
		t.Fatalf("parallel Fig9: %v", err)
	}

	if !reflect.DeepEqual(serial7a, par7a) {
		t.Fatalf("Fig7a differs across parallelism:\nserial:   %+v\nparallel: %+v", serial7a, par7a)
	}
	if !reflect.DeepEqual(serial9, par9) {
		t.Fatalf("Fig9 differs across parallelism:\nserial:   %+v\nparallel: %+v", serial9, par9)
	}
}

func TestForEachRunsAllAndReportsFirstErrorByIndex(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)

	var ran atomic.Int64
	errAt2 := errors.New("boom 2")
	err := forEach(16, func(i int) error {
		ran.Add(1)
		switch i {
		case 2:
			return errAt2
		case 9:
			return errors.New("boom 9")
		}
		return nil
	})
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d of 16 indices", got)
	}
	if err != errAt2 {
		t.Fatalf("got error %v, want first-by-index %v", err, errAt2)
	}
	if err := forEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("forEach(0): %v", err)
	}
}

func TestSetParallelismClamps(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset, want >= 1", got)
	}
}
