//go:build !race

package cluster_test

const raceDetectorOn = false
