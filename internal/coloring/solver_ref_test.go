package coloring

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"localadvice/internal/graph"
)

// solveKColoringReference is the original scan-based SolveKColoring, kept
// as the oracle the heap-based search must match: it rescans every node
// to choose each branch, so it costs O(n²) even without backtracking, and
// it has no budget.
func solveKColoringReference(g *graph.Graph, k int) ([]int, bool) {
	n := g.N()
	colors := make([]int, n)
	full := uint32(1)<<uint(k) - 1
	avail := make([]uint32, n)
	for v := range avail {
		avail[v] = full
	}
	var solve func(remaining int) bool
	solve = func(remaining int) bool {
		if remaining == 0 {
			return true
		}
		// Most-constrained uncolored node; ties toward higher degree.
		best := -1
		for v := 0; v < n; v++ {
			if colors[v] != 0 {
				continue
			}
			if best == -1 ||
				popcount(avail[v]) < popcount(avail[best]) ||
				popcount(avail[v]) == popcount(avail[best]) && g.Degree(v) > g.Degree(best) {
				best = v
			}
		}
		if avail[best] == 0 {
			return false
		}
		for c := 1; c <= k; c++ {
			bit := uint32(1) << uint(c-1)
			if avail[best]&bit == 0 {
				continue
			}
			colors[best] = c
			var changed []int
			feasible := true
			for _, w := range g.Neighbors(best) {
				if colors[w] == 0 && avail[w]&bit != 0 {
					avail[w] &^= bit
					changed = append(changed, w)
					if avail[w] == 0 {
						feasible = false
					}
				}
			}
			if feasible && solve(remaining-1) {
				return true
			}
			colors[best] = 0
			for _, w := range changed {
				avail[w] |= bit
			}
		}
		return false
	}
	if !solve(n) {
		return nil, false
	}
	return colors, true
}

func popcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// relabeled returns g with its node indices permuted by rng; every node
// keeps its ID. The search breaks ties by index, so this moves them.
func relabeled(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.N())
	ids := make([]int64, g.N())
	for v, p := range perm {
		ids[p] = g.ID(v)
	}
	edges := make([]graph.Edge, 0, g.M())
	for _, e := range g.Edges() {
		u, v := perm[e.U], perm[e.V]
		edges = append(edges, graph.Edge{U: min(u, v), V: max(u, v)})
	}
	return graph.NewFromEdges(ids, edges)
}

// referenceGraphs is the oracle corpus: seeded planted-colorable and
// G(n, p) graphs on 3 to 40 nodes, half of them relabeled, under permuted
// or spread IDs, plus fixed families. Dense G(n, p) graphs are not
// 3-colorable, so k = 3 refutes them by backtracking.
func referenceGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{
		"cycle5":    graph.Cycle(5),
		"cycle12":   graph.Cycle(12),
		"cycle101":  graph.Cycle(101),
		"torus5x5":  graph.Torus2D(5, 5),
		"torus6x8":  graph.Torus2D(6, 8),
		"tristrip":  graph.TriangularStrip(80),
		"chorded":   graph.ChordedCycle(120),
		"petersen":  graph.Petersen(),
		"prism5":    graph.Prism(5),
		"prism8":    graph.Prism(8),
		"grid7x9":   graph.Grid2D(7, 9),
		"complete5": graph.Complete(5),
	}
	rng := rand.New(rand.NewSource(1807))
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(38)
		var g *graph.Graph
		var name string
		if i%2 == 0 {
			k := 2 + rng.Intn(3)
			g, _ = graph.RandomColorable(n, k, 0.1+0.4*rng.Float64(), rng)
			name = fmt.Sprintf("colorable%d-n%d-k%d", i, n, k)
		} else {
			g = graph.RandomGNP(n, 0.05+0.3*rng.Float64(), rng)
			name = fmt.Sprintf("gnp%d-n%d", i, n)
		}
		if i%4 < 2 {
			graph.AssignPermutedIDs(g, rng)
		} else {
			graph.AssignSpreadIDs(g, rng)
		}
		if i%3 != 0 {
			g = relabeled(g, rng)
		}
		out[name] = g
	}
	return out
}

// TestSolveKColoringMatchesReference requires the heap-based search to
// return exactly the reference's coloring and verdict at k = 1..4: the
// provers' advice is persisted under digest keys, so a different tie-break
// would fork stored artifacts from fresh ones.
func TestSolveKColoringMatchesReference(t *testing.T) {
	for name, g := range referenceGraphs() {
		for k := 1; k <= 4; k++ {
			want, wantOK := solveKColoringReference(g, k)
			got, gotOK, err := kColoring(g, k, searchBudget)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: got %v %v, reference %v %v", name, k, gotOK, got, wantOK, want)
			}
		}
	}
}

// TestSolveKColoringManyColors pins the uint64 color mask: complete graphs
// need one color per node, past the 32 a uint32 mask holds.
func TestSolveKColoringManyColors(t *testing.T) {
	for _, k := range []int{32, 33, 64} {
		g := graph.Complete(k)
		colors, ok := SolveKColoring(g, k)
		if !ok {
			t.Fatalf("K%d not %d-colorable", k, k)
		}
		if err := CheckProper(g, colors); err != nil {
			t.Fatal(err)
		}
		if MaxColor(colors) != k {
			t.Errorf("K%d used %d colors", k, MaxColor(colors))
		}
	}
	for _, k := range []int{0, -1, 65} {
		if _, _, err := kColoring(graph.Cycle(4), k, searchBudget); err == nil {
			t.Errorf("k=%d accepted", k)
		}
		if _, ok := SolveKColoring(graph.Cycle(4), k); ok {
			t.Errorf("k=%d reported a coloring", k)
		}
	}
}

// TestKColoringBudget drives the backtrack cap through kColoring's budget
// parameter: a search that never undoes an assignment passes at budget 0,
// a refutation that needs backtracking fails closed with ErrSearchBudget,
// and the package budget lets it finish.
func TestKColoringBudget(t *testing.T) {
	if _, ok, err := kColoring(graph.Cycle(1024), 3, 0); err != nil || !ok {
		t.Fatalf("backtrack-free search at budget 0: ok=%v err=%v", ok, err)
	}
	k4 := graph.Complete(4)
	for _, budget := range []int{0, 1, 2} {
		_, ok, err := kColoring(k4, 3, budget)
		if ok || !errors.Is(err, ErrSearchBudget) {
			t.Fatalf("K4 at k=3, budget %d: ok=%v err=%v, want ErrSearchBudget", budget, ok, err)
		}
	}
	if _, ok, err := kColoring(k4, 3, searchBudget); ok || err != nil {
		t.Fatalf("K4 at k=3: ok=%v err=%v, want a completed refutation", ok, err)
	}
	if _, err := greedyBase(k4); err == nil || err.Error() != "coloring: graph is not 3-colorable" {
		t.Errorf("refuted prover error = %v", err)
	}
}

// TestSolveKColoringAllocsConstant pins the search's allocations to a
// constant: the same count on cycle-1024 as on cycle-4096. The scan-based
// search allocated one undo slice per colored node (1,025 and 4,097).
func TestSolveKColoringAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode changes allocation counts")
	}
	allocs := func(n int) float64 {
		g := graph.Cycle(n)
		return testing.AllocsPerRun(5, func() {
			if _, ok := SolveKColoring(g, 3); !ok {
				t.Fatal("cycle not 3-colored")
			}
		})
	}
	small, large := allocs(1024), allocs(4096)
	t.Logf("allocations per search: %.0f on cycle-1024, %.0f on cycle-4096", small, large)
	if small != large || small > 8 {
		t.Errorf("allocations %.0f (cycle-1024) and %.0f (cycle-4096), want the same constant of at most 8", small, large)
	}
}

// FuzzSolveKColoring compares the search with the reference on graphs of
// at most 24 nodes decoded from the input: byte 0 picks n, byte 1 picks k
// in 1..5, and each further byte pair adds an edge. A search that exhausts
// its budget is not compared, since the reference would run unbounded.
func FuzzSolveKColoring(f *testing.F) {
	f.Add([]byte{2, 2, 0, 1, 1, 2, 2, 0})                   // triangle, k = 3
	f.Add([]byte{3, 2, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}) // K4, k = 3
	f.Add([]byte{4, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})       // C5, k = 2
	f.Add([]byte{23, 3, 5, 17, 9, 2, 11, 20, 0, 23, 14, 7, 3, 3, 8, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%24
		k := 1 + int(data[1])%5
		g := graph.New(n)
		for i := 2; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		got, ok, err := kColoring(g, k, searchBudget)
		if errors.Is(err, ErrSearchBudget) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := solveKColoringReference(g, k)
		if ok != wantOK || !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: got %v %v, reference %v %v", n, k, ok, got, wantOK, want)
		}
	})
}
