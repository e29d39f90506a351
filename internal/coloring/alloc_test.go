package coloring

import (
	"math/rand"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// TestDecodeBallAllocsPerNode bounds the allocations of one ball-engine
// decode of Moser–Tardos advice on cycle-1024 at one worker. A failure
// prints the count of an engine that builds a fresh view per node.
func TestDecodeBallAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	tc := ThreeColoring{CoverRadius: 10, GroupSpread: 2}
	g := graph.Cycle(1024)
	advice, err := tc.EncodeLLL(g, rand.New(rand.NewSource(1)), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, _, err := tc.DecodeOn("ball", g, advice, local.RunConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	perNode := testing.AllocsPerRun(5, decode) / float64(g.N())
	t.Logf("%.3f allocations per node, %.0f per decode", perNode, perNode*float64(g.N()))
	const bound = 0.05
	if perNode > bound {
		t.Errorf("%.3f allocations per node, want at most %.2f (fresh views: 13 per node, 13,320 per decode)", perNode, bound)
	}
}
