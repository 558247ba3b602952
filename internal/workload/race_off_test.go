//go:build !race

package workload

const raceDetectorOn = false
