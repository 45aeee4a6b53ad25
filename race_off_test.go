//go:build !race

package adassure

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
