//go:build race

package orient

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
