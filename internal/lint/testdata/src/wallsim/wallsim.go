// Package wallsim models simulation code, where wall-clock reads are
// forbidden.
package wallsim

import (
	"time"

	t "time"
)

func readsClock() time.Duration {
	start := time.Now()      // want `wall-clock time\.Now in simulation code`
	return time.Since(start) // want `wall-clock time\.Since`
}

func sleeps() {
	time.Sleep(5 * time.Millisecond) // want `wall-clock time\.Sleep in simulation code: use \(\*sim\.Simulation\)\.Sleep`
}

func waits() {
	<-time.After(time.Second) // want `wall-clock time\.After`
	<-time.Tick(time.Second)  // want `wall-clock time\.Tick`
	tk := time.NewTicker(1)   // want `wall-clock time\.NewTicker`
	tk.Stop()
}

func aliased() t.Time {
	return t.Now() // want `wall-clock time\.Now`
}

// durationMath never touches the host clock: time.Duration values and
// time.Time methods are allowed.
func durationMath(a, b time.Time, d time.Duration) bool {
	_ = d * 2
	_ = time.Duration(42) * time.Millisecond
	return a.After(b) // method, not the package-level wait
}
