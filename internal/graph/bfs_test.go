package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceBall is the historical map-based bounded BFS, kept as the test
// oracle for order and membership of the scratch-based implementation.
func referenceBall(g *Graph, v, r int) []int {
	dist := map[int]int{v: 0}
	queue := []int{v}
	out := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == r {
			continue
		}
		for _, w := range g.adj[u] {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
				out = append(out, w)
			}
		}
	}
	return out
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	reg, err := RandomRegular(40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"cycle":    Cycle(17),
		"path":     Path(9),
		"grid":     Grid2D(6, 7),
		"tree":     CompleteBinaryTree(5),
		"star":     Star(8),
		"complete": Complete(6),
		"gnp":      RandomGNP(30, 0.15, rng),
		"regular":  reg,
		"isolated": New(5),
	}
}

func TestBFSWithinMatchesReference(t *testing.T) {
	s := NewBFSScratch() // one scratch reused across every traversal
	for name, g := range testGraphs(t) {
		for _, r := range []int{0, 1, 2, 3, 5, -1} {
			for v := 0; v < g.N(); v++ {
				rr := r
				if rr < 0 {
					rr = g.N() // unbounded == radius n for the reference
				}
				want := referenceBall(g, v, rr)
				got := g.BFSWithin(v, r, s)
				if len(got) != len(want) {
					t.Fatalf("%s v=%d r=%d: |ball| = %d, want %d", name, v, r, len(got), len(want))
				}
				ref := g.BFSFrom(v)
				for i, u := range got {
					if int(u) != want[i] {
						t.Fatalf("%s v=%d r=%d: order[%d] = %d, want %d", name, v, r, i, u, want[i])
					}
					if s.Dist(int(u)) != ref[u] {
						t.Fatalf("%s v=%d r=%d: dist[%d] = %d, want %d", name, v, r, u, s.Dist(int(u)), ref[u])
					}
					if s.Pos(int(u)) != i {
						t.Fatalf("%s v=%d r=%d: pos[%d] = %d, want %d", name, v, r, u, s.Pos(int(u)), i)
					}
				}
			}
		}
	}
}

func TestBFSScratchUnvisitedQueries(t *testing.T) {
	g := Cycle(10)
	s := NewBFSScratch()
	g.BFSWithin(0, 1, s)
	if d := s.Dist(5); d != -1 {
		t.Errorf("Dist of node outside ball = %d, want -1", d)
	}
	if p := s.Pos(5); p != -1 {
		t.Errorf("Pos of node outside ball = %d, want -1", p)
	}
	if s.Dist(-1) != -1 || s.Pos(99) != -1 {
		t.Error("out-of-range queries must return -1")
	}
	// A new traversal invalidates the old epoch without clearing arrays.
	g.BFSWithin(5, 1, s)
	if s.Dist(0) != -1 {
		t.Error("stale visit from previous traversal leaked through")
	}
	if s.Dist(5) != 0 || s.Dist(4) != 1 || s.Dist(6) != 1 {
		t.Error("second traversal wrong")
	}
}

func TestDistBounded(t *testing.T) {
	for name, g := range testGraphs(t) {
		for u := 0; u < g.N(); u++ {
			ref := g.BFSFrom(u)
			for v := 0; v < g.N(); v++ {
				if d := g.Dist(u, v); d != ref[v] {
					t.Fatalf("%s: Dist(%d,%d) = %d, want %d", name, u, v, d, ref[v])
				}
			}
		}
	}
}

func TestDiameterAndEccentricityScratch(t *testing.T) {
	for name, g := range testGraphs(t) {
		if g.N() == 0 {
			continue
		}
		want := 0
		for v := 0; v < g.N(); v++ {
			ecc := 0
			for _, d := range g.BFSFrom(v) {
				if d > ecc {
					ecc = d
				}
			}
			if got := g.Eccentricity(v); got != ecc {
				t.Fatalf("%s: Eccentricity(%d) = %d, want %d", name, v, got, ecc)
			}
			if ecc > want {
				want = ecc
			}
		}
		if got := g.Diameter(); got != want {
			t.Fatalf("%s: Diameter = %d, want %d", name, got, want)
		}
	}
}

func TestSnapshotMatchesAdjacency(t *testing.T) {
	for name, g := range testGraphs(t) {
		c := g.Snapshot()
		if c.N() != g.N() {
			t.Fatalf("%s: snapshot has %d nodes, want %d", name, c.N(), g.N())
		}
		if c.MaxDegree() != g.MaxDegree() {
			t.Fatalf("%s: snapshot Δ = %d, want %d", name, c.MaxDegree(), g.MaxDegree())
		}
		for v := 0; v < g.N(); v++ {
			adj := g.Neighbors(v)
			nbrs := c.Neighbors(v)
			if len(nbrs) != len(adj) || c.Degree(v) != len(adj) {
				t.Fatalf("%s: snapshot degree mismatch at %d", name, v)
			}
			for i, w := range nbrs {
				if int(w) != adj[i] {
					t.Fatalf("%s: snapshot neighbor order differs at %d", name, v)
				}
			}
		}
		if g.Snapshot() != c {
			t.Errorf("%s: snapshot not cached", name)
		}
	}
}

func TestSnapshotInvalidation(t *testing.T) {
	g := Path(4)
	c := g.Snapshot()
	if c.MaxDegree() != 2 {
		t.Fatalf("Δ = %d, want 2", c.MaxDegree())
	}
	g.MustAddEdge(0, 2)
	c2 := g.Snapshot()
	if c2 == c {
		t.Fatal("AddEdge did not invalidate the snapshot")
	}
	if c2.Degree(0) != 2 || g.MaxDegree() != 3 {
		t.Fatal("rebuilt snapshot is stale")
	}
	g.SortAdjacencyByID()
	if g.Snapshot() == c2 {
		t.Fatal("SortAdjacencyByID did not invalidate the snapshot")
	}
}

func TestNewFromEdgesMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inc := RandomGNP(25, 0.2, rng)
	AssignPermutedIDs(inc, rng)

	ids := make([]int64, inc.N())
	for v := range ids {
		ids[v] = inc.ID(v)
	}
	bulk := NewFromEdges(ids, append([]Edge(nil), inc.Edges()...))
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	if bulk.N() != inc.N() || bulk.M() != inc.M() {
		t.Fatalf("size mismatch: %s vs %s", bulk, inc)
	}
	for v := 0; v < inc.N(); v++ {
		if bulk.ID(v) != inc.ID(v) {
			t.Fatalf("ID mismatch at %d", v)
		}
		a, b := inc.Neighbors(v), bulk.Neighbors(v)
		ia, ib := inc.IncidentEdges(v), bulk.IncidentEdges(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] || ia[i] != ib[i] {
				t.Fatalf("adjacency order mismatch at node %d slot %d", v, i)
			}
		}
	}
}

// TestRebuildInPlace rebuilds one graph large → small → large and checks
// each result against a fresh NewFromEdges, including the lazily cached
// NodeByID map and CSR snapshot that an in-place rebuild must drop.
func TestRebuildInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	small := Star(4)
	AssignSpreadIDs(small, rng)
	large := RandomGNP(30, 0.2, rng)
	AssignPermutedIDs(large, rng)
	g := NewFromEdges(nil, nil)
	for _, want := range []*Graph{large, small, large} {
		g.NodeByID(1) // fill both caches from the previous contents
		g.Snapshot()
		g.Rebuild(want.ids, want.Edges())
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.N() != want.N() || g.M() != want.M() || g.Snapshot().MaxDegree() != want.MaxDegree() {
			t.Fatalf("rebuilt %s, want %s (CSR Δ %d)", g, want, g.Snapshot().MaxDegree())
		}
		for v := 0; v < want.N(); v++ {
			if g.NodeByID(want.ID(v)) != v || !slices.Equal(g.Neighbors(v), want.Neighbors(v)) ||
				!slices.Equal(g.IncidentEdges(v), want.IncidentEdges(v)) {
				t.Fatalf("rebuilt %s differs from %s at node %d", g, want, v)
			}
		}
	}
}

func TestNewFromEdgesRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dup id", func() { NewFromEdges([]int64{1, 1}, nil).NodeByID(1) })
	mustPanic("bad id", func() { NewFromEdges([]int64{0}, nil) })
	mustPanic("loop", func() { NewFromEdges([]int64{1, 2}, []Edge{{U: 1, V: 1}}) })
	mustPanic("reversed", func() { NewFromEdges([]int64{1, 2}, []Edge{{U: 1, V: 0}}) })
	mustPanic("range", func() { NewFromEdges([]int64{1, 2}, []Edge{{U: 0, V: 2}}) })
}

func TestSphereMembership(t *testing.T) {
	for name, g := range testGraphs(t) {
		for v := 0; v < g.N(); v++ {
			ref := g.BFSFrom(v)
			for _, r := range []int{0, 1, 2, 4} {
				want := map[int]bool{}
				for u, d := range ref {
					if d == r {
						want[u] = true
					}
				}
				got := g.Sphere(v, r)
				if len(got) != len(want) {
					t.Fatalf("%s v=%d r=%d: |sphere| = %d, want %d", name, v, r, len(got), len(want))
				}
				for _, u := range got {
					if !want[u] {
						t.Fatalf("%s v=%d r=%d: node %d not at distance %d", name, v, r, u, r)
					}
				}
			}
		}
	}
}
