package lcl

import (
	"math/rand"
	"testing"
	"time"

	"localadvice/internal/graph"
)

func TestColoringVerify(t *testing.T) {
	g := graph.Cycle(6)
	sol := NewSolution(g)
	for v := 0; v < 6; v++ {
		sol.Node[v] = 1 + v%2
	}
	if err := Verify(Coloring{K: 2}, g, sol); err != nil {
		t.Errorf("proper 2-coloring rejected: %v", err)
	}
	sol.Node[1] = 1 // clash with node 0
	if err := Verify(Coloring{K: 2}, g, sol); err == nil {
		t.Error("improper coloring accepted")
	}
}

func TestColoringAlphabetEnforced(t *testing.T) {
	g := graph.Path(2)
	sol := NewSolution(g)
	sol.Node[0] = 1
	sol.Node[1] = 5
	if err := Verify(Coloring{K: 3}, g, sol); err == nil {
		t.Error("out-of-alphabet label accepted")
	}
}

// TestVerifyLargeAlphabetCost runs Verify under Coloring{K: MaxDegree} on a
// star, the shape a /v1/verify request for deltacolor can take. Alphabet
// membership must cost O(1) per label: a linear scan of the alphabet makes
// the K = leaves run about a thousand times slower than the K = 2 run on
// the same star, while set lookups keep the two within a small factor.
func TestVerifyLargeAlphabetCost(t *testing.T) {
	const leaves = 50_000
	g := graph.Star(leaves)
	if g.MaxDegree() != leaves {
		t.Fatalf("MaxDegree = %d, want %d", g.MaxDegree(), leaves)
	}
	fastest := func(k int) time.Duration {
		sol := NewSolution(g)
		sol.Node[0] = 1
		for v := 1; v <= leaves; v++ {
			sol.Node[v] = k // the last alphabet entry
		}
		best := time.Duration(1<<63 - 1)
		for range 5 {
			start := time.Now()
			if err := Verify(Coloring{K: k}, g, sol); err != nil {
				t.Fatalf("K=%d: proper coloring rejected: %v", k, err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := fastest(2), fastest(leaves)
	if large > 50*small+10*time.Millisecond {
		t.Errorf("Verify with K=%d took %v, K=2 took %v on the same star: alphabet membership is not O(1) per label",
			leaves, large, small)
	}
}

func TestVerifyRejectsIncomplete(t *testing.T) {
	g := graph.Path(3)
	sol := NewSolution(g)
	sol.Node[0] = 1
	if err := Verify(Coloring{K: 3}, g, sol); err == nil {
		t.Error("partial solution accepted")
	}
}

func TestMISVerify(t *testing.T) {
	g := graph.Path(4)
	tests := []struct {
		name   string
		labels []int
		valid  bool
	}{
		{"alternating", []int{1, 2, 1, 2}, true},
		{"endpoints", []int{1, 2, 2, 1}, true},
		{"adjacent in set", []int{1, 1, 2, 1}, false},
		{"not maximal", []int{1, 2, 2, 2}, false},
		{"empty set", []int{2, 2, 2, 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol := NewSolution(g)
			copy(sol.Node, tt.labels)
			err := Verify(MIS{}, g, sol)
			if (err == nil) != tt.valid {
				t.Errorf("Verify = %v, want valid=%v", err, tt.valid)
			}
		})
	}
}

func TestMaximalMatchingVerify(t *testing.T) {
	g := graph.Path(4) // edges: {0,1}, {1,2}, {2,3}
	tests := []struct {
		name  string
		edges []int
		valid bool
	}{
		{"ends matched", []int{1, 2, 1}, true},
		{"middle matched", []int{2, 1, 2}, true},
		{"two at one node", []int{1, 1, 2}, false},
		{"not maximal", []int{2, 2, 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol := NewSolution(g)
			copy(sol.Edge, tt.edges)
			err := Verify(MaximalMatching{}, g, sol)
			if (err == nil) != tt.valid {
				t.Errorf("Verify = %v, want valid=%v", err, tt.valid)
			}
		})
	}
}

func orient(g *graph.Graph, sol *Solution, from, to int) {
	e := g.EdgeIndex(from, to)
	ed := g.Edge(e)
	if ed.U == from {
		sol.Edge[e] = TowardV
	} else {
		sol.Edge[e] = TowardU
	}
}

func TestBalancedOrientationVerify(t *testing.T) {
	g := graph.Cycle(4)
	sol := NewSolution(g)
	// Consistent cycle orientation 0->1->2->3->0 is balanced.
	orient(g, sol, 0, 1)
	orient(g, sol, 1, 2)
	orient(g, sol, 2, 3)
	orient(g, sol, 3, 0)
	if err := Verify(BalancedOrientation{}, g, sol); err != nil {
		t.Errorf("consistent cycle rejected: %v", err)
	}
	// Reverse one edge: two nodes become unbalanced (in=2 or out=2).
	orient(g, sol, 2, 1)
	if err := Verify(BalancedOrientation{}, g, sol); err == nil {
		t.Error("unbalanced orientation accepted")
	}
}

func TestInOutDegree(t *testing.T) {
	g := graph.Star(3)
	sol := NewSolution(g)
	orient(g, sol, 0, 1)
	orient(g, sol, 2, 0)
	orient(g, sol, 3, 0)
	if OutDegree(g, 0, sol) != 1 || InDegree(g, 0, sol) != 2 {
		t.Errorf("center: out=%d in=%d, want 1/2", OutDegree(g, 0, sol), InDegree(g, 0, sol))
	}
	if OutDegree(g, 2, sol) != 1 || InDegree(g, 2, sol) != 0 {
		t.Error("leaf degrees wrong")
	}
}

func TestSinklessOrientationVerify(t *testing.T) {
	g := graph.Complete(4) // 3-regular
	sol := NewSolution(g)
	// Orient all edges toward node 0: node 0 becomes a sink.
	for _, e := range g.IncidentEdges(0) {
		ed := g.Edge(e)
		if ed.U == 0 {
			sol.Edge[e] = TowardU
		} else {
			sol.Edge[e] = TowardV
		}
	}
	// Orient the remaining edges consistently by index.
	for e := 0; e < g.M(); e++ {
		if sol.Edge[e] == Unset {
			sol.Edge[e] = TowardV
		}
	}
	if err := Verify(SinklessOrientation{}, g, sol); err == nil {
		t.Error("sink at node 0 accepted")
	}
}

func TestEdgeColoringVerify(t *testing.T) {
	g := graph.Path(3)
	sol := NewSolution(g)
	sol.Edge[0], sol.Edge[1] = 1, 2
	if err := Verify(EdgeColoring{K: 2}, g, sol); err != nil {
		t.Errorf("proper edge coloring rejected: %v", err)
	}
	sol.Edge[1] = 1
	if err := Verify(EdgeColoring{K: 2}, g, sol); err == nil {
		t.Error("clashing edge colors accepted")
	}
}

func TestSplittingVerify(t *testing.T) {
	g := graph.Cycle(4)
	sol := NewSolution(g)
	for e := 0; e < 4; e++ {
		sol.Edge[e] = 1 + e%2
	}
	// Cycle(4) edges in order: {0,1},{1,2},{2,3},{0,3} — alternating colors
	// give each node one of each.
	if err := Verify(Splitting{}, g, sol); err != nil {
		t.Errorf("alternating splitting rejected: %v", err)
	}
	sol.Edge[1] = 1
	if err := Verify(Splitting{}, g, sol); err == nil {
		t.Error("unbalanced splitting accepted")
	}
}

func TestWeakColoringVerify(t *testing.T) {
	g := graph.Path(3)
	sol := NewSolution(g)
	sol.Node[0], sol.Node[1], sol.Node[2] = 1, 2, 1
	if err := Verify(WeakColoring{K: 2}, g, sol); err != nil {
		t.Errorf("weak coloring rejected: %v", err)
	}
	sol.Node[0], sol.Node[1], sol.Node[2] = 1, 1, 1
	if err := Verify(WeakColoring{K: 2}, g, sol); err == nil {
		t.Error("monochromatic labeling accepted")
	}
}

func TestSolveCompletesColoring(t *testing.T) {
	g := graph.Cycle(5)
	partial := NewSolution(g)
	partial.Node[0] = 1
	sol, ok := Solve(Coloring{K: 3}, g, partial)
	if !ok {
		t.Fatal("Solve failed on 3-colorable cycle")
	}
	if sol.Node[0] != 1 {
		t.Error("Solve changed a fixed label")
	}
	if err := Verify(Coloring{K: 3}, g, sol); err != nil {
		t.Error(err)
	}
}

func TestSolveDetectsUnsatisfiable(t *testing.T) {
	// An odd cycle is not 2-colorable.
	if _, ok := Solve(Coloring{K: 2}, graph.Cycle(5), NewSolution(graph.Cycle(5))); ok {
		t.Error("odd cycle reported 2-colorable")
	}
	// K4 is not 3-colorable.
	if _, ok := Solve(Coloring{K: 3}, graph.Complete(4), NewSolution(graph.Complete(4))); ok {
		t.Error("K4 reported 3-colorable")
	}
}

func TestSolveRespectsConflictingPartial(t *testing.T) {
	g := graph.Path(2)
	partial := NewSolution(g)
	partial.Node[0], partial.Node[1] = 1, 1
	if _, ok := Solve(Coloring{K: 3}, g, partial); ok {
		t.Error("Solve accepted a conflicting partial solution")
	}
}

func TestSolveOrientationProblems(t *testing.T) {
	g := graph.Torus2D(3, 3)
	sol, ok := Solve(BalancedOrientation{}, g, NewSolution(g))
	if !ok {
		t.Fatal("balanced orientation unsolvable on torus")
	}
	if err := Verify(BalancedOrientation{}, g, sol); err != nil {
		t.Error(err)
	}
}

func TestSolveMISAndMatching(t *testing.T) {
	g := graph.Grid2D(3, 3)
	if sol, ok := Solve(MIS{}, g, NewSolution(g)); !ok {
		t.Error("MIS unsolvable on grid")
	} else if err := Verify(MIS{}, g, sol); err != nil {
		t.Error(err)
	}
	if sol, ok := Solve(MaximalMatching{}, g, NewSolution(g)); !ok {
		t.Error("matching unsolvable on grid")
	} else if err := Verify(MaximalMatching{}, g, sol); err != nil {
		t.Error(err)
	}
}

func TestGreedyColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomGNP(25, 0.2, rng)
		graph.AssignPermutedIDs(g, rng)
		colors := GreedyColoring(g)
		sol, err := ColoringSolution(g, colors)
		if err != nil {
			t.Fatal(err)
		}
		delta := g.MaxDegree()
		if err := Verify(Coloring{K: delta + 1}, g, sol); err != nil {
			t.Fatalf("greedy coloring invalid: %v", err)
		}
	}
}

func TestGreedyColoringDependsOnlyOnIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGNP(15, 0.3, rng)
	graph.AssignPermutedIDs(g, rng)
	c1 := GreedyColoring(g)
	c2 := GreedyColoring(g.Clone())
	for v := range c1 {
		if c1[v] != c2[v] {
			t.Fatal("greedy coloring not deterministic")
		}
	}
}

func TestSolutionHelpers(t *testing.T) {
	g := graph.Path(3)
	if _, err := ColoringSolution(g, []int{1, 2}); err == nil {
		t.Error("wrong-length colors accepted")
	}
	if _, err := OrientationSolution(g, []int{TowardV}); err == nil {
		t.Error("wrong-length dirs accepted")
	}
	sol := NewSolution(g)
	if sol.Complete(true, false) {
		t.Error("unset solution reported complete")
	}
	c := sol.Clone()
	c.Node[0] = 1
	if sol.Node[0] != Unset {
		t.Error("Clone shares storage")
	}
}

func TestRulingSetVerify(t *testing.T) {
	g := graph.Path(7)
	p := RulingSet{Beta: 2}
	if p.Radius() != 2 {
		t.Errorf("radius = %d, want 2", p.Radius())
	}
	tests := []struct {
		name   string
		labels []int
		valid  bool
	}{
		{"every other pair", []int{1, 2, 2, 1, 2, 2, 1}, true},
		{"adjacent members", []int{1, 1, 2, 2, 1, 2, 2}, false},
		{"uncovered node", []int{1, 2, 2, 2, 2, 2, 1}, false},
		{"all members invalid", []int{1, 1, 1, 1, 1, 1, 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol := NewSolution(g)
			copy(sol.Node, tt.labels)
			err := Verify(p, g, sol)
			if (err == nil) != tt.valid {
				t.Errorf("Verify = %v, want valid=%v", err, tt.valid)
			}
		})
	}
}

func TestRulingSetSolve(t *testing.T) {
	g := graph.Cycle(9)
	sol, ok := Solve(RulingSet{Beta: 3}, g, NewSolution(g))
	if !ok {
		t.Fatal("ruling set unsolvable on C9")
	}
	if err := Verify(RulingSet{Beta: 3}, g, sol); err != nil {
		t.Fatal(err)
	}
}
