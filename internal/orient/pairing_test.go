package orient

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// checkPairing compares partnerAt at every incident edge of every node of g
// with the pairing read off the sorted-by-neighbor-ID order: ranks 2i and
// 2i+1 are partners, and the last edge of an odd-degree node has none.
func checkPairing(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		sorted := g.IncidentEdgesByID(v)
		for r, e := range sorted {
			want := -1
			if r^1 < len(sorted) {
				want = sorted[r^1]
			}
			if got := partnerAt(g, v, e); got != want {
				t.Fatalf("%s: node %d (degree %d), edge %d of rank %d: partnerAt = %d, sorted pairing says %d",
					name, v, len(sorted), e, r, got, want)
			}
		}
	}
}

// checkViewPairing is checkPairing for the decoder's viewPartnerAt over
// every node of a view's ball, where distance-T nodes see only part of
// their edges. It returns the first mismatch, or "".
func checkViewPairing(view *local.View) string {
	for _, u := range view.Nodes() {
		v := int(u)
		sorted := slices.Clone(view.IncidentEdges(v))
		slices.SortFunc(sorted, func(a, b int) int {
			return cmp.Compare(view.ID(view.Other(a, v)), view.ID(view.Other(b, v)))
		})
		for r, e := range sorted {
			want := -1
			if r^1 < len(sorted) {
				want = sorted[r^1]
			}
			if got := viewPartnerAt(view, v, e); got != want {
				return fmt.Sprintf("node %d (visible degree %d), edge %d of rank %d: viewPartnerAt = %d, sorted pairing says %d",
					v, len(sorted), e, r, got, want)
			}
		}
	}
	return ""
}

// TestPartnerAtMatchesSortedPairing pins the canonical pairing the trail
// decomposition is built on. Every random graph family with degrees 1 to 9,
// under permuted and under spread IDs, is checked as a host graph and
// through the radius-2 view of each of its nodes, where boundary nodes see
// only part of their edges.
func TestPartnerAtMatchesSortedPairing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gs := map[string]*graph.Graph{
		"gnp":  graph.RandomGNP(40, 0.12, rng),
		"tree": graph.RandomTree(30, rng),
	}
	for d := 1; d <= 9; d++ {
		g, err := graph.RandomRegular(2*(d+6), d, rng)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("regular%d", d)] = g
	}
	for name, g := range gs {
		for _, ids := range []string{"permuted", "spread"} {
			if ids == "permuted" {
				graph.AssignPermutedIDs(g, rng)
			} else {
				graph.AssignSpreadIDs(g, rng)
			}
			label := name + "/" + ids
			checkPairing(t, label, g)
			outs, _, err := local.RunBall(g, nil, 2, func(view *local.View) any { return checkViewPairing(view) }, local.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for v, out := range outs {
				if out != "" {
					t.Fatalf("%s view of %d: %s", label, v, out)
				}
			}
		}
	}
}

// TestDecodeVarBallAllocsPerNode bounds the allocations of one ball-engine
// decode of Moser–Tardos advice on cycle-1024 at one worker. What remains
// per node is the returned edge-claim slice and its boxing; the bound
// leaves room for scratch refills after a GC empties the pools. A failure
// prints the counts of a decoder that allocates its trail walks and of one
// that also sorts the incident list on every walk step and builds a fresh
// view per node.
func TestDecodeVarBallAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	s := Schema{P: DefaultParams()}
	g := graph.Cycle(1024)
	va, err := s.EncodeVarLLL(g, rand.New(rand.NewSource(1)), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, _, err := s.DecodeVarOn("ball", g, va, local.RunConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	perNode := testing.AllocsPerRun(5, decode) / float64(g.N())
	t.Logf("%.2f allocations per node, %.0f per decode", perNode, perNode*float64(g.N()))
	const bound = 3
	if perNode > bound {
		t.Errorf("%.2f allocations per node, want at most %d (allocated trail walks: 14.01 per node; with sorting partner lookup and fresh views: 385 per node, 394,249 per decode)", perNode, bound)
	}
}
