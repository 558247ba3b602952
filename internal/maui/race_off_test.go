//go:build !race

package maui

const raceDetectorOn = false
