//go:build race

package eth

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
