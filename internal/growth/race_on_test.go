//go:build race

package growth

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
