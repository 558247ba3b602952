package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDeadlineStopsRunawaySimulation(t *testing.T) {
	s := New()
	s.SetDeadline(time.Second)
	err := s.Run(func() {
		// A periodic actor that would keep the clock advancing
		// forever.
		s.Go("ticker", func() {
			for {
				s.Sleep(100 * time.Millisecond)
			}
		})
		s.Sleep(time.Hour) // the condition under test never occurs
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// Like a deadlock, the cap names who was parked: main and the ticker.
	if !strings.HasSuffix(err.Error(), "parked actors: sleep×2") {
		t.Errorf("err = %v, want it to name the parked sleep×2", err)
	}
	if now := s.Now(); now > time.Second {
		t.Fatalf("clock advanced to %v past the cap", now)
	}
}

func TestDeadlineNotHitWhenWorkFinishes(t *testing.T) {
	s := New()
	s.SetDeadline(time.Second)
	err := s.Run(func() {
		s.Sleep(500 * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlineExactBoundaryAllowed(t *testing.T) {
	s := New()
	s.SetDeadline(time.Second)
	err := s.Run(func() {
		s.Sleep(time.Second) // event exactly at the cap is fine
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
