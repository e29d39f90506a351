//go:build !race

package graph

// raceEnabled reports whether the race detector is compiled in; the
// allocation-equality tests skip under it (race mode randomizes sync.Pool
// retention, so allocation counts are not reproducible).
const raceEnabled = false
