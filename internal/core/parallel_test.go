package core

import (
	"errors"
	"sync/atomic"
	"testing"
)

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
