//go:build race

package pbs

// raceDetectorOn reports whether this test binary was built with the
// race detector, under which allocation counts mean nothing.
const raceDetectorOn = true
