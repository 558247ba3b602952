//go:build !race

package telemetry

const raceDetectorOn = false
