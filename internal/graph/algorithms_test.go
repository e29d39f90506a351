package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(5)
	dist := g.BFSFrom(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
	if g.Dist(1, 4) != 3 {
		t.Error("Dist wrong")
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := DisjointUnion(Path(2), Path(2))
	dist := g.BFSFrom(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable nodes got distances %v", dist)
	}
}

func TestBallAndSphere(t *testing.T) {
	g := Grid2D(5, 5)
	center := 12 // middle of the grid
	ball := g.Ball(center, 1)
	if len(ball) != 5 {
		t.Errorf("Ball(center,1) has %d nodes, want 5", len(ball))
	}
	if len(g.Ball(center, 0)) != 1 {
		t.Error("Ball radius 0 should be just the center")
	}
}

func TestComponents(t *testing.T) {
	g := DisjointUnion(Cycle(3), Path(4), Path(1))
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[0] == comp[3] {
		t.Errorf("component labels wrong: %v", comp)
	}
	if !Cycle(4).IsConnected() {
		t.Error("cycle reported disconnected")
	}
}

func TestDiameterKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", Path(5), 4},
		{"cycle6", Cycle(6), 3},
		{"cycle7", Cycle(7), 3},
		{"k4", Complete(4), 1},
		{"grid3x3", Grid2D(3, 3), 4},
		{"cube3", Hypercube(3), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Errorf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 4})
	if sub.N() != 4 || sub.M() != 2 { // edges {0,1},{1,2}; node 4 isolated
		t.Errorf("sub: n=%d m=%d", sub.N(), sub.M())
	}
	if orig[3] != 4 {
		t.Errorf("orig mapping wrong: %v", orig)
	}
	if sub.ID(3) != g.ID(4) {
		t.Error("IDs not preserved")
	}
}

func TestBipartition(t *testing.T) {
	if _, ok := Cycle(5).Bipartition(); ok {
		t.Error("odd cycle reported bipartite")
	}
	side, ok := Cycle(6).Bipartition()
	if !ok {
		t.Fatal("even cycle reported non-bipartite")
	}
	for _, e := range Cycle(6).Edges() {
		if side[e.U] == side[e.V] {
			t.Fatal("bipartition not proper")
		}
	}
	if _, ok := Grid2D(4, 4).Bipartition(); !ok {
		t.Error("grid reported non-bipartite")
	}
}

func TestGrowthProfile(t *testing.T) {
	// Cycle: ball of radius r has 2r+1 nodes (until wrapping).
	prof := Cycle(20).GrowthProfile(4)
	for r := 0; r <= 4; r++ {
		if prof[r] != 2*r+1 {
			t.Errorf("cycle growth at r=%d is %d, want %d", r, prof[r], 2*r+1)
		}
	}
	// Binary tree grows exponentially: ball radius 3 from the root covers 15.
	tp := CompleteBinaryTree(6).GrowthProfile(3)
	if tp[3] < 15 {
		t.Errorf("tree growth at r=3 is %d, want >= 15", tp[3])
	}
}

func TestIDAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Cycle(12)
	AssignPermutedIDs(g, rng)
	seen := map[int64]bool{}
	for v := 0; v < g.N(); v++ {
		id := g.ID(v)
		if id < 1 || id > 12 || seen[id] {
			t.Fatalf("bad permuted ID %d", id)
		}
		seen[id] = true
	}
	AssignSpreadIDs(g, rng)
	for v := 0; v < g.N(); v++ {
		if g.ID(v) < 1 || g.ID(v) > 12*12*12 {
			t.Fatalf("spread ID %d out of range", g.ID(v))
		}
	}
	AssignSequentialIDs(g)
	if g.ID(0) != 1 || g.ID(11) != 12 {
		t.Error("sequential IDs wrong")
	}
}

func TestRemapIDsOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Cycle(15)
	AssignSpreadIDs(g, rng)
	before := make([]int64, g.N())
	for v := range before {
		before[v] = g.ID(v)
	}
	RemapIDsOrderPreserving(g, rng)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if (before[u] < before[v]) != (g.ID(u) < g.ID(v)) {
				t.Fatalf("order not preserved between nodes %d and %d", u, v)
			}
		}
	}
}

func TestBallMatchesBFSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := RandomGNP(20, 0.15, r)
		v := rng.Intn(20)
		rad := rng.Intn(4)
		dist := g.BFSFrom(v)
		ball := g.Ball(v, rad)
		inBall := make(map[int]bool, len(ball))
		for _, u := range ball {
			inBall[u] = true
		}
		for u, d := range dist {
			want := d >= 0 && d <= rad
			if inBall[u] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
