package growth

import (
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
)

// TestDecodeAllocsPerNode bounds the allocations of one Theorem 4.1 decode
// of the BenchmarkE1LCLGrowth instance: cycle-600 at R=60, 3-coloring, the
// greedy prover. testing.AllocsPerRun runs it at GOMAXPROCS 1, so the ball
// engine decodes on one worker. What remains per node is the boxed output,
// the completion's returned solution and alphabet, and one small violation
// per label the brute force rejects; the bound leaves room for scratch
// refills after a GC empties the pools. A failure prints the count of the
// map-based decoder.
func TestDecodeAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	g := graph.Cycle(600)
	s := Schema{Problem: lcl.Coloring{K: 3}, ClusterRadius: 60, Solver: colorSolver}
	advice, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, _, err := s.Decode(g, advice); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	perNode := testing.AllocsPerRun(5, decode) / float64(g.N())
	t.Logf("%.2f allocations per node, %.0f per decode", perNode, perNode*float64(g.N()))
	const bound = 38
	if perNode > bound {
		t.Errorf("%.2f allocations per node, want at most %d (map-based decoder: 557.7 per node)", perNode, bound)
	}
}
