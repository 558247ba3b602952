package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// stepsPlan is one generated world for TestSleepStepsIsNSleeps. A
// stepper actor takes bursts of steps of d, with a plain sleep after
// each burst so later boundaries fall off the tick grid. Around it,
// callbacks queued before anything runs, a second actor and main put
// events on the stepper's step boundaries, a nanosecond either side of
// them and in between; a deadline and main's return may cut the run
// short anywhere.
type stepsPlan struct {
	d        time.Duration
	bursts   []int
	gaps     []time.Duration
	timers   []stepsTimer
	other    []stepsOp
	deadline time.Duration // 0: none
	mainFor  time.Duration // main returns after sleeping this long
}

// stepsTimer is a callback main queues at time zero. When it fires it
// may queue a second callback at its own instant (behind whatever is
// already queued there) and may signal the second actor's gate.
type stepsTimer struct {
	at            time.Duration
	chain, signal bool
}

// stepsOp is one step of the second actor: sleep until at ('s'), queue
// a callback at at ('t') or wait for a timer's signal ('w').
type stepsOp struct {
	kind byte
	at   time.Duration
}

func genStepsPlan(rng *RNG) stepsPlan {
	p := stepsPlan{d: time.Duration(1+rng.Intn(3)) * tick}
	var bounds []time.Duration
	var end time.Duration
	for i := 0; i < 1+rng.Intn(4); i++ {
		n := rng.Intn(10)
		gap := time.Duration(rng.Intn(3)) * tick / 2
		p.bursts = append(p.bursts, n)
		p.gaps = append(p.gaps, gap)
		for k := 1; k <= n; k++ {
			bounds = append(bounds, end+time.Duration(k)*p.d)
		}
		end += time.Duration(n)*p.d + gap
	}
	// near picks an instant on a step boundary, one nanosecond off one,
	// or anywhere in the run.
	near := func() time.Duration {
		if len(bounds) == 0 || rng.Intn(4) == 0 {
			return time.Duration(rng.Intn(int(end) + 2))
		}
		b := bounds[rng.Intn(len(bounds))]
		switch rng.Intn(4) {
		case 0:
			return b - 1
		case 1:
			return b + 1
		}
		return b
	}
	for i := rng.Intn(10); i > 0; i-- {
		p.timers = append(p.timers, stepsTimer{at: near(), chain: rng.Intn(3) == 0, signal: rng.Intn(3) == 0})
	}
	for i := rng.Intn(8); i > 0; i-- {
		p.other = append(p.other, stepsOp{kind: "sstw"[rng.Intn(4)], at: near()})
	}
	if rng.Intn(3) == 0 {
		p.deadline = near()
	}
	p.mainFor = end + tick
	if rng.Intn(3) == 0 {
		p.mainFor = near()
	}
	return p
}

// playSteps runs the plan, the stepper charging its bursts with
// SleepSteps or with single Sleeps, and returns what was observed: every
// callback and every actor resuming from a step of its script with the
// clock, Dispatches() and the kernel's two instruments it read, then how
// the run ended and the seqs it consumed. It also returns the parks.
func playSteps(p stepsPlan, steps bool) (string, uint64) {
	s := New()
	reg := telemetry.New()
	s.SetTelemetry(reg)
	dispatches, depth := reg.Counter("sim.dispatches"), reg.Gauge("sim.queue_depth")
	if p.deadline > 0 {
		s.SetDeadline(p.deadline)
	}
	var mu sync.Mutex
	var log strings.Builder
	note := func(who string, i int) {
		mu.Lock()
		fmt.Fprintf(&log, "%s%d@%v #%d/%d q%v\n", who, i, s.Now(), s.Dispatches(), dispatches.Value(), depth.Value())
		mu.Unlock()
	}
	gate := s.NewGate("other")
	signalled := false // written by callbacks and the second actor, never at once
	err := s.Run(func() {
		for i, tm := range p.timers {
			s.At(tm.at, func() {
				note("timer", i)
				if tm.chain {
					s.At(tm.at, func() { note("chain", i) })
				}
				if tm.signal {
					signalled = true
					gate.Signal()
				}
			})
		}
		s.Go("stepper", func() {
			for i, n := range p.bursts {
				if steps {
					s.SleepSteps(p.d, n)
				} else {
					for k := 0; k < n; k++ {
						s.Sleep(p.d)
					}
				}
				note("stepper", i)
				s.Sleep(p.gaps[i])
			}
		})
		s.Go("other", func() {
			for i, op := range p.other {
				switch op.kind {
				case 's':
					s.Sleep(op.at - s.Now())
				case 't':
					s.At(op.at, func() { note("late", i) })
				case 'w':
					for !signalled {
						gate.Wait(nil)
					}
					signalled = false
				}
				note("other", i)
			}
		})
		s.Sleep(p.mainFor)
		note("main", 0)
	})
	s.mu.Lock()
	seq, parks := s.seq, s.parks
	s.mu.Unlock()
	fmt.Fprintf(&log, "end@%v #%d seq %d: %v\n", s.Now(), s.Dispatches(), seq, err)
	return log.String(), parks
}

// SleepSteps(d, n) is n × Sleep(d): whatever is queued on, beside or
// between the step boundaries, whoever shares the instants, wherever a
// deadline or main's return cuts the run, every observation (clock,
// dispatches, instruments, order) and the run's end read the same.
func TestSleepStepsIsNSleeps(t *testing.T) {
	var fewerParks, deadlines, mainEarly int
	for seed := uint64(1); seed <= 50; seed++ {
		p := genStepsPlan(NewRNG(seed))
		want, sleepParks := playSteps(p, false)
		got, stepParks := playSteps(p, true)
		if got != want {
			t.Fatalf("seed %d (%+v):\nSleepSteps:\n%s\nsingle sleeps:\n%s", seed, p, got, want)
		}
		switch {
		case strings.Contains(want, ErrDeadline.Error()):
			deadlines++
		case !strings.Contains(want, fmt.Sprintf("stepper%d@", len(p.bursts)-1)):
			mainEarly++
		}
		if stepParks < sleepParks {
			fewerParks++
		}
	}
	// The seeds must reach what the test is about: the controller taking
	// parked steps, a deadline and main's return cutting a run short.
	if fewerParks == 0 || deadlines == 0 || mainEarly == 0 {
		t.Errorf("of 50 seeds, %d parked less with SleepSteps, %d hit the deadline, %d ended with main mid-run",
			fewerParks, deadlines, mainEarly)
	}
}
