//go:build race

package graph

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
