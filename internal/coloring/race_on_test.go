//go:build race

package coloring

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
