//go:build !race

package pbs

const raceDetectorOn = false
