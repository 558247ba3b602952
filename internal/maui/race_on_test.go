//go:build race

package maui

// raceDetectorOn reports whether this test binary was built with the
// race detector. The zero-allocation test skips its allocation count
// under it: the race runtime disables sync.Pool reuse, so allocs/op is
// meaningless there.
const raceDetectorOn = true
