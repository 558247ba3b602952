package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// These tests pin the order in which the kernel releases events, the
// one thing Sleep's in-place clock advance must not change. None of
// them looks at speed: they hold for any kernel that releases events in
// (at, seq) order one at a time, so they pass with the shortcut taken
// out too.

const tick = time.Microsecond

// scriptOp is one step of a scripted actor. A timer schedules a logging
// callback k ticks ahead and carries on; a sleep and a wait both block
// for k ticks, the wait on the actor's own gate with the signal coming
// from an AfterArg callback.
type scriptOp struct {
	kind byte // 't' timer, 's' sleep, 'w' gate wait
	k    int
}

// resumption is one line of the log: an actor resuming from a blocking
// step (who >= 0) or timer callback -who-1 firing, with the virtual
// time it saw.
type resumption struct {
	who int
	at  time.Duration
}

func genScripts(rng *RNG) [][]scriptOp {
	scripts := make([][]scriptOp, 1+rng.Intn(8))
	for i := range scripts {
		ops := make([]scriptOp, 4+rng.Intn(12))
		for j := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[j] = scriptOp{'t', rng.Intn(4)} // 0: due at the current instant
			case 1:
				ops[j] = scriptOp{'w', 1 + rng.Intn(3)}
			default:
				ops[j] = scriptOp{'s', 1 + rng.Intn(3)}
			}
		}
		scripts[i] = ops
	}
	return scripts
}

// referenceLog replays the scripts on a plain sequential event list:
// take the pending entry with the least (at, seq), run it until it
// blocks, repeat. The spawn callbacks take seq 1..n as in runScripts;
// the main actor's own far-off wake comes after everything and is left
// out.
func referenceLog(scripts [][]scriptOp) []resumption {
	type entry struct {
		at, seq, who, pc int
	}
	var pending []entry
	var log []resumption
	seq, timers := 0, 0
	push := func(at, who, pc int) {
		seq++
		pending = append(pending, entry{at, seq, who, pc})
	}
	for i := range scripts {
		push(0, i, 0)
	}
	for len(pending) > 0 {
		m := 0
		for i, e := range pending {
			if e.at < pending[m].at || e.at == pending[m].at && e.seq < pending[m].seq {
				m = i
			}
		}
		e := pending[m]
		pending = append(pending[:m], pending[m+1:]...)
		log = append(log, resumption{e.who, time.Duration(e.at) * tick})
		if e.who < 0 {
			continue
		}
		for pc := e.pc; pc < len(scripts[e.who]); pc++ {
			op := scripts[e.who][pc]
			if op.kind != 't' {
				push(e.at+op.k, e.who, pc+1)
				break
			}
			timers++
			push(e.at+op.k, -timers, 0)
		}
	}
	return log
}

type scriptRun struct {
	s      *Simulation
	mu     sync.Mutex
	log    []resumption
	timers int
}

func (r *scriptRun) note(who int) {
	r.mu.Lock()
	r.log = append(r.log, resumption{who, r.s.Now()})
	r.mu.Unlock()
}

type scriptTimer struct {
	r  *scriptRun
	id int
}

func fireScriptTimer(a any) { t := a.(*scriptTimer); t.r.note(-t.id) }

type scriptWaiter struct {
	mu    sync.Mutex
	gate  *Gate
	ready bool
}

func signalScriptWaiter(a any) {
	w := a.(*scriptWaiter)
	w.mu.Lock()
	w.ready = true
	w.mu.Unlock()
	w.gate.Signal()
}

// runScripts plays the scripts on the kernel. Actors are spawned from
// callbacks at time zero so that they start one at a time in a fixed
// order; from then on exactly one of them runs at any moment.
func runScripts(t *testing.T, scripts [][]scriptOp) []resumption {
	s := New()
	r := &scriptRun{s: s}
	horizon := tick
	for _, ops := range scripts {
		for _, op := range ops {
			horizon += time.Duration(op.k) * tick
		}
	}
	err := s.Run(func() {
		for i, ops := range scripts {
			s.At(0, func() {
				s.Go(fmt.Sprintf("script%d", i), func() {
					w := &scriptWaiter{gate: s.NewGate(fmt.Sprintf("script%d", i))}
					r.note(i)
					for _, op := range ops {
						d := time.Duration(op.k) * tick
						switch op.kind {
						case 't':
							r.mu.Lock()
							r.timers++
							tm := &scriptTimer{r, r.timers}
							r.mu.Unlock()
							s.AfterArg(d, fireScriptTimer, tm)
							continue
						case 's':
							s.Sleep(d)
						case 'w':
							s.AfterArg(d, signalScriptWaiter, w)
							w.mu.Lock()
							for !w.ready {
								w.gate.Wait(&w.mu)
							}
							w.ready = false
							w.mu.Unlock()
						}
						r.note(i)
					}
				})
			})
		}
		s.Sleep(horizon)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != horizon {
		t.Fatalf("finished at %v, want the horizon %v", s.Now(), horizon)
	}
	return r.log
}

// (i) Whatever mix of lone and contended sleeps, timers and gate wakes
// a script produces, actors resume in the order of a sequential
// (at, seq) queue.
func TestSleepOrderMatchesReferenceQueue(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		scripts := genScripts(NewRNG(seed))
		want := referenceLog(scripts)
		got := runScripts(t, scripts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d resumptions, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: resumption %d is %+v, reference has %+v", seed, i, got[i], want[i])
			}
		}
	}
}

type orderLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *orderLog) add(s *Simulation, who string) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf("%s@%v", who, s.Now()))
	l.mu.Unlock()
}

func (l *orderLog) expect(t *testing.T, want ...string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !slices.Equal(l.lines, want) {
		t.Fatalf("order = %v, want %v", l.lines, want)
	}
}

// (ii) An event already queued at exactly now+d has the lower seq and
// runs before the sleeper resumes.
func TestSleepTieRunsQueuedEventFirst(t *testing.T) {
	s := New()
	var log orderLog
	if err := s.Run(func() {
		s.After(5*tick, func() { log.add(s, "timer") })
		s.Sleep(5 * tick)
		log.add(s, "main")
	}); err != nil {
		t.Fatal(err)
	}
	log.expect(t, "timer@5µs", "main@5µs")
}

// (iii) Two actors are woken at one instant. The first goes back to
// sleep while the second's wake is still undispatched in the
// controller's batch — not in the queue — and the second must still
// run at that instant before the clock moves.
func TestSleepMidBatchWaitsForRestOfInstant(t *testing.T) {
	s := New()
	var log orderLog
	if err := s.Run(func() {
		s.At(0, func() {
			s.Go("a", func() {
				s.Sleep(10 * tick)
				log.add(s, "a")
				s.Sleep(5 * tick)
				log.add(s, "a")
			})
		})
		s.At(0, func() {
			s.Go("b", func() {
				s.Sleep(10 * tick)
				log.add(s, "b")
				s.Sleep(20 * tick)
				log.add(s, "b")
			})
		})
		s.Sleep(100 * tick)
	}); err != nil {
		t.Fatal(err)
	}
	log.expect(t, "a@10µs", "b@10µs", "a@15µs", "b@30µs")
}

// kernelState reads the fields the white-box waits below poll.
func kernelState(s *Simulation) (running int, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running, s.now
}

// (iv) An actor that signalled a waiter and then sleeps shares the
// clock with it: while the waiter is on the ready list the sleeper must
// park, and the waiter, which takes the slot then, keeps seeing the old
// instant.
func TestSleepWithSecondRunnableActorParks(t *testing.T) {
	s := New()
	var log orderLog
	release := make(chan struct{})
	var signalled atomic.Bool
	go func() {
		// Let the waiter go on once the signaller has settled: parked
		// (one running slot left, the waiter's) or, wrongly, ahead on
		// the clock.
		for {
			running, now := kernelState(s)
			if signalled.Load() && running == 1 || now > 3*tick {
				break
			}
			runtime.Gosched()
		}
		close(release)
	}()
	if err := s.Run(func() {
		g := s.NewGate("handoff")
		var mu sync.Mutex
		ready := false
		s.Go("waiter", func() {
			mu.Lock()
			for !ready {
				g.Wait(&mu)
			}
			mu.Unlock()
			<-release // still runnable while the signaller sleeps
			log.add(s, "waiter")
			s.Sleep(2 * tick)
			log.add(s, "waiter")
		})
		s.Sleep(3 * tick)
		mu.Lock()
		ready = true
		mu.Unlock()
		g.Signal()
		signalled.Store(true)
		s.Sleep(10 * tick)
		log.add(s, "main")
	}); err != nil {
		t.Fatal(err)
	}
	log.expect(t, "waiter@3µs", "waiter@5µs", "main@13µs")
}

// (v) A lone sleeper cannot carry the clock past the deadline: the
// crossing sleep ends the run with ErrDeadline at the last instant
// inside the cap, and a sleep landing exactly on the cap is allowed.
func TestLoneSleeperHonoursDeadline(t *testing.T) {
	s := New()
	s.SetDeadline(10 * tick)
	err := s.Run(func() {
		for {
			s.Sleep(4 * tick)
		}
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if now := s.Now(); now != 8*tick {
		t.Fatalf("clock stopped at %v, want 8µs", now)
	}

	s = New()
	s.SetDeadline(10 * tick)
	if err := s.Run(func() {
		s.Sleep(5 * tick)
		s.Sleep(5 * tick)
	}); err != nil {
		t.Fatalf("sleeps ending exactly on the cap: %v", err)
	}
	if now := s.Now(); now != 10*tick {
		t.Fatalf("finished at %v, want 10µs", now)
	}
}

// (vi, first half) An actor spawned before Run waits on the ready list
// until Run starts it, ahead of main; its sleep parks because main is
// due at the same instant, and it wakes inside the run.
func TestSleepBeforeRunWaitsForMain(t *testing.T) {
	s := New()
	var log orderLog
	s.Go("early", func() {
		s.Sleep(5 * tick)
		log.add(s, "early")
	})
	for {
		running, now := kernelState(s)
		if now != 0 {
			t.Fatalf("clock at %v before Run", now)
		}
		if running == 0 {
			break // parked
		}
		runtime.Gosched()
	}
	if err := s.Run(func() {
		log.add(s, "main")
		s.Sleep(10 * tick)
		log.add(s, "main")
	}); err != nil {
		t.Fatal(err)
	}
	log.expect(t, "main@0s", "early@5µs", "main@10µs")
}

// (vi, second half) A daemon woken after Run returned finds a halted
// kernel: its sleep parks for good and the clock stays where the run
// left it — whether main returned or the deadline halted the run with
// main still parked.
func TestSleepAfterHaltDoesNotMoveClock(t *testing.T) {
	for _, mainReturns := range []bool{true, false} {
		s := New()
		s.SetDeadline(10 * tick)
		g := s.NewGate("teardown")
		var mu sync.Mutex
		closed := false
		err := s.Run(func() {
			s.Go("daemon", func() {
				mu.Lock()
				for !closed {
					g.Wait(&mu)
				}
				mu.Unlock()
				for {
					s.Sleep(tick)
				}
			})
			s.Sleep(7 * tick)
			if !mainReturns {
				s.Sleep(time.Hour)
			}
		})
		if mainReturns && err != nil || !mainReturns && !errors.Is(err, ErrDeadline) {
			t.Fatalf("main returns %v: Run: %v", mainReturns, err)
		}
		mu.Lock()
		closed = true
		mu.Unlock()
		g.Broadcast()
		for {
			running, now := kernelState(s)
			if now != 7*tick {
				t.Fatalf("main returns %v: clock moved to %v on a halted kernel", mainReturns, now)
			}
			if running == 0 {
				break // the daemon parked in Sleep
			}
			runtime.Gosched()
		}
	}
}

// (vii) The kernel's instruments read the same whether a wake went
// through the queue or not: one dispatch per sleep, and the queue depth
// the controller would have seen after popping the sleeper's wake. A
// lone run of steps is the same sleeps taken in one advance; neither
// parks.
func TestLoneSleepsCountAsDispatches(t *testing.T) {
	const n = 25
	for _, tc := range []struct {
		name  string
		sleep func(s *Simulation)
	}{
		{"Sleep", func(s *Simulation) {
			for i := 0; i < n; i++ {
				s.Sleep(tick)
			}
		}},
		{"SleepSteps", func(s *Simulation) {
			s.SleepSteps(tick, n)
			s.SleepSteps(tick, 0)
			s.SleepSteps(0, n)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			reg := telemetry.New()
			s.SetTelemetry(reg)
			if err := s.Run(func() {
				s.After(time.Hour, func() {})
				s.After(2*time.Hour, func() {})
				parks := s.parkCount()
				tc.sleep(s)
				if got := s.parkCount() - parks; got != 0 {
					t.Errorf("lone sleeps parked %d times", got)
				}
				if got := reg.Counter("sim.dispatches").Value(); got != n {
					t.Errorf("sim.dispatches = %d after %d lone sleeps", got, n)
				}
				if got := reg.Gauge("sim.queue_depth").Value(); got != 2 {
					t.Errorf("sim.queue_depth = %v, want the 2 pending timers", got)
				}
				if got := s.Dispatches(); got != n {
					t.Errorf("Dispatches() = %d after %d lone sleeps", got, n)
				}
				if got := s.Now(); got != n*tick {
					t.Errorf("clock at %v after %d lone sleeps of %v", got, n, tick)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The deadlock report lists what is parked at the deadlock and nothing
// that was parked before it: every sleep, timed-out wait, signal and
// broadcast on the way there has its note cleared by whoever woke it.
func TestDeadlockMessageAfterMixedParks(t *testing.T) {
	s := New()
	err := s.Run(func() {
		stuck := s.NewGate("stuck")
		lost := s.NewGate("lost")
		pulse := s.NewGate("pulse")
		var mu sync.Mutex
		round := 0
		for i := 0; i < 3; i++ {
			s.Go("worker", func() {
				s.Sleep(time.Duration(i+1) * tick) // parks: the others are runnable or due first
				mu.Lock()
				pulse.WaitTimeout(&mu, tick) // times out
				for round == 0 {
					pulse.Wait(&mu) // woken by the broadcast
				}
				if i == 0 {
					lost.Wait(&mu)
				} else {
					stuck.Wait(&mu)
				}
				mu.Unlock()
			})
		}
		s.Sleep(20 * tick)
		mu.Lock()
		round = 1
		mu.Unlock()
		pulse.Broadcast()
		s.Sleep(tick) // a lone sleep on the way
		mu.Lock()
		pulse.WaitTimeout(&mu, tick)
		stuck.Wait(&mu)
	})
	const want = "sim: deadlock at 22µs: parked actors: gate:lost×1, gate:stuck×3"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}
