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
	advice, err := tc.EncodeLLL(g, rand.New(rand.NewSource(1)), 1<<20, nil)
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

// TestClusterDecodeAllocsFlatInCoverRadius pins Theorem 6.1's first stage
// to one pass per view: a ClusterColoringStage decode of torus-48×48 at one
// worker makes within 1.5× the allocations per node at CoverRadius 6 as at
// CoverRadius 2, although its views hold about seven times the nodes. A
// decoder that ran one BFS per ball node made 33.0 and 112.7 (3.4×).
func TestClusterDecodeAllocsFlatInCoverRadius(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	g := graph.Torus2D(48, 48)
	perNode := func(cover int) float64 {
		st := ClusterColoringStage{CoverRadius: cover}
		va, err := st.EncodeVar(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			if _, _, err := st.DecodeVar(g, va, nil); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		return testing.AllocsPerRun(3, decode) / float64(g.N())
	}
	small, large := perNode(2), perNode(6)
	t.Logf("allocations per node: %.1f at CoverRadius 2, %.1f at CoverRadius 6 (%.2f×)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("%.1f allocations per node at CoverRadius 6 is over 1.5× the %.1f at CoverRadius 2 (one BFS per ball node: 33.0 → 112.7)", large, small)
	}
}
