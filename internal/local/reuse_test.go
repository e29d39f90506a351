package local

import (
	"testing"

	"localadvice/internal/graph"
)

// TestRunBallAllocsIndependentOfGraphSize pins the ball engine's steady
// state: each worker rebuilds one View in place, so a single-worker run
// whose algorithm returns a preboxed value allocates the same number of
// times on a 256-node and a 1024-node cycle. A failure prints the count of
// an engine that builds a fresh View and subgraph per node.
func TestRunBallAllocsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	boxed := any(struct{ x, y int }{1, 2})
	algo := func(*View) any { return boxed }
	// Allocations per run on cycle-1024 with a fresh View per node.
	fresh := map[int]int{0: 10242, 1: 13314, 27: 13316}
	for _, radius := range []int{0, 1, 27} {
		allocs := make(map[int]float64)
		for _, n := range []int{256, 1024} {
			g := graph.Cycle(n)
			run := func() {
				if _, _, err := RunBall(g, nil, radius, algo, RunConfig{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the CSR snapshot and the pooled builder
			allocs[n] = testing.AllocsPerRun(20, run)
		}
		t.Logf("radius %d: %.0f allocations per run on cycle-256, %.0f on cycle-1024", radius, allocs[256], allocs[1024])
		if allocs[256] != allocs[1024] {
			t.Errorf("radius %d: %.0f allocations per run on cycle-256 but %.0f on cycle-1024; want equal (a fresh View per node: %d on cycle-1024)",
				radius, allocs[256], allocs[1024], fresh[radius])
		}
	}
}
