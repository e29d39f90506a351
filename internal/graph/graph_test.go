package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewGraphBasics(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	e, err := g.AddEdge(0, 2)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("HasEdge false after AddEdge")
	}
	if got := g.Edge(e); got != (Edge{U: 0, V: 2}) {
		t.Errorf("Edge(%d) = %v", e, got)
	}
	if g.Other(e, 0) != 2 || g.Other(e, 2) != 0 {
		t.Error("Other wrong")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 0 {
		t.Error("degrees wrong")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	tests := []struct {
		name string
		u, v int
	}{
		{"loop", 1, 1},
		{"duplicate", 1, 0},
		{"out of range low", -1, 0},
		{"out of range high", 0, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddEdge(tt.u, tt.v); err == nil {
				t.Errorf("AddEdge(%d,%d) succeeded, want error", tt.u, tt.v)
			}
		})
	}
}

func TestEdgeIndexAlignment(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	nbrs := g.Neighbors(0)
	incs := g.IncidentEdges(0)
	for i := range nbrs {
		if g.Other(incs[i], 0) != nbrs[i] {
			t.Errorf("incident edge %d not aligned with neighbor %d", incs[i], nbrs[i])
		}
	}
	if g.EdgeIndex(0, 2) != 1 || g.EdgeIndex(2, 0) != 1 {
		t.Error("EdgeIndex wrong")
	}
	if g.EdgeIndex(1, 2) != -1 {
		t.Error("EdgeIndex for non-edge should be -1")
	}
}

func TestSetIDs(t *testing.T) {
	g := New(3)
	if err := g.SetIDs([]int64{10, 20, 30}); err != nil {
		t.Fatalf("SetIDs: %v", err)
	}
	if g.ID(1) != 20 || g.NodeByID(30) != 2 || g.NodeByID(99) != -1 {
		t.Error("IDs not installed")
	}
	if err := g.SetIDs([]int64{1, 1, 2}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if err := g.SetIDs([]int64{1, 2}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := g.SetIDs([]int64{0, 1, 2}); err == nil {
		t.Error("non-positive ID accepted")
	}
}

func TestSortAdjacencyByID(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	if err := g.SetIDs([]int64{100, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	byID := g.IncidentEdgesByID(0) // the same order, without mutating g
	g.SortAdjacencyByID()
	if !slices.Equal(byID, g.IncidentEdges(0)) {
		t.Fatalf("IncidentEdgesByID(0) = %v, sorted incident edges %v", byID, g.IncidentEdges(0))
	}
	want := []int{3, 2, 1} // by IDs 1 < 2 < 3
	got := g.Neighbors(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", got, want)
		}
	}
	// Incident edges stay aligned.
	for i, inc := range g.IncidentEdges(0) {
		if g.Other(inc, 0) != got[i] {
			t.Error("incident edges misaligned after sort")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Cycle(5)
	c := g.Clone()
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("Clone shares storage with original")
	}
	if c.ID(3) != g.ID(3) {
		t.Error("Clone lost IDs")
	}
}

func TestValidate(t *testing.T) {
	gens := map[string]*Graph{
		"cycle":  Cycle(7),
		"path":   Path(5),
		"grid":   Grid2D(3, 4),
		"torus":  Torus2D(3, 3),
		"k5":     Complete(5),
		"k23":    CompleteBipartite(2, 3),
		"star":   Star(6),
		"tree":   CompleteBinaryTree(4),
		"cube":   Hypercube(3),
		"ladder": Ladder(4),
		"cpower": CyclePowers(9, 2),
		"union":  DisjointUnion(Cycle(3), Path(2)),
	}
	for name, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name        string
		g           *Graph
		n, m, delta int
	}{
		{"cycle7", Cycle(7), 7, 7, 2},
		{"path1", Path(1), 1, 0, 0},
		{"path5", Path(5), 5, 4, 2},
		{"grid3x4", Grid2D(3, 4), 12, 17, 4},
		{"torus3x3", Torus2D(3, 3), 9, 18, 4},
		{"k5", Complete(5), 5, 10, 4},
		{"k23", CompleteBipartite(2, 3), 5, 6, 3},
		{"star6", Star(6), 7, 6, 6},
		{"tree3", CompleteBinaryTree(3), 7, 6, 3},
		{"cube3", Hypercube(3), 8, 12, 3},
		{"ladder4", Ladder(4), 8, 10, 3},
		{"cpower9_2", CyclePowers(9, 2), 9, 18, 4},
		{"prism5", Prism(5), 10, 15, 3},
		{"petersen", Petersen(), 10, 15, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m || tt.g.MaxDegree() != tt.delta {
				t.Errorf("got n=%d m=%d Δ=%d, want n=%d m=%d Δ=%d",
					tt.g.N(), tt.g.M(), tt.g.MaxDegree(), tt.n, tt.m, tt.delta)
			}
		})
	}
}

func TestTorusEvenDegrees(t *testing.T) {
	g := Torus2D(4, 5)
	if !g.AllDegreesEven() || !g.IsRegular() {
		t.Error("torus should be 4-regular")
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 50} {
		g := RandomTree(n, rng)
		if g.M() != n-1 && n > 0 {
			if !(n == 1 && g.M() == 0) {
				t.Errorf("tree n=%d has m=%d", n, g.M())
			}
		}
		if !g.IsConnected() {
			t.Errorf("tree n=%d not connected", n)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("tree n=%d: %v", n, err)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {16, 6}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("node %d degree %d, want %d", v, g.Degree(v), tc.d)
			}
		}
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Error("d >= n accepted")
	}
}

func TestRandomBipartiteRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := RandomBipartiteRegular(8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular() || g.MaxDegree() != 4 {
		t.Errorf("not 4-regular: Δ=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	if _, ok := g.Bipartition(); !ok {
		t.Error("not bipartite")
	}
}

func TestRandomEvenDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := RandomEvenDegree(30, 5, rng)
	if !g.AllDegreesEven() {
		t.Error("degrees not all even")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRandomColorable(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, colors := RandomColorable(40, 3, 0.3, rng)
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			t.Fatalf("planted coloring violated on edge %v", e)
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDisjointUnionIDsUnique(t *testing.T) {
	g := DisjointUnion(Cycle(4), Cycle(3), Path(2))
	seen := make(map[int64]bool)
	for v := 0; v < g.N(); v++ {
		if seen[g.ID(v)] {
			t.Fatalf("duplicate ID %d", g.ID(v))
		}
		seen[g.ID(v)] = true
	}
	if _, c := g.Components(); c != 3 {
		t.Errorf("components = %d, want 3", c)
	}
}
