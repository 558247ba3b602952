//go:build race

package telemetry

// raceDetectorOn reports whether this test binary was built with the
// race detector, under which allocation counts mean nothing.
const raceDetectorOn = true
