package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// nearestCenterReference is the coloring decoder's nearestCenter as it was
// before NearestSources replaced it: one full BFS from v, then the argmin
// over the sources of (distance, position in sources); -1 if no source is
// reachable. With the sources in ID order the position tie-break is the
// smaller-ID tie-break the decoder used.
func nearestCenterReference(g *Graph, v int, sources []int) (owner, dist int) {
	d := g.BFSFrom(v)
	owner, dist = -1, -1
	for i, s := range sources {
		if d[s] == -1 {
			continue
		}
		if owner == -1 || d[s] < dist {
			owner, dist = i, d[s]
		}
	}
	return owner, dist
}

// greedyRulingSetReference is the ball-cover loop that growth, coloring
// and orient each carried before GreedyRulingSet: scan the candidates in
// ID order, keep each uncovered one and cover its radius-r ball.
func greedyRulingSetReference(g *Graph, candidates []int, r int) []int {
	order := append([]int(nil), candidates...)
	sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })
	covered := make([]bool, g.N())
	var set []int
	for _, v := range order {
		if covered[v] {
			continue
		}
		set = append(set, v)
		for _, u := range g.Ball(v, r) {
			covered[u] = true
		}
	}
	return set
}

// traversalGraphs are seeded cycles, tori (whose even sides make distance
// ties), random 4-regular graphs, G(n,p) and planted 3-colorable graphs,
// plus a disconnected union, each with permuted and with spread IDs.
func traversalGraphs(t testing.TB) map[string]*Graph {
	rng := rand.New(rand.NewSource(27))
	regular, err := RandomRegular(48, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	planted, _ := RandomColorable(60, 3, 0.12, rng)
	families := map[string]*Graph{
		"cycle":   Cycle(31),
		"torus":   Torus2D(6, 8),
		"regular": regular,
		"gnp":     RandomGNP(50, 4.0/50, rng),
		"planted": planted,
		"union":   DisjointUnion(Cycle(6), Path(5), New(2)),
	}
	out := map[string]*Graph{}
	for name, g := range families {
		permuted := g.Clone()
		AssignPermutedIDs(permuted, rng)
		out[name+"/permuted"] = permuted
		spread := g.Clone()
		AssignSpreadIDs(spread, rng)
		out[name+"/spread"] = spread
	}
	return out
}

// checkNearestSources compares one NearestSources traversal with the
// per-node reference: the same owner and distance at every node within r of
// a source, no other node reached, and distances nondecreasing in visit
// order.
func checkNearestSources(g *Graph, sources []int, r int, s *BFSScratch) error {
	order := g.NearestSources(sources, r, s)
	for i := 1; i < len(order); i++ {
		if s.Dist(int(order[i])) < s.Dist(int(order[i-1])) {
			return fmt.Errorf("visit order not layered at position %d", i)
		}
	}
	reached := 0
	for v := 0; v < g.N(); v++ {
		owner, dist := nearestCenterReference(g, v, sources)
		if r >= 0 && dist > r {
			owner, dist = -1, -1
		}
		if got, gotDist := s.Owner(v), s.Dist(v); got != owner || gotDist != dist {
			return fmt.Errorf("node %d (ID %d): owner %d at distance %d, reference %d at %d",
				v, g.ID(v), got, gotDist, owner, dist)
		}
		if owner != -1 {
			reached++
		}
	}
	if reached != len(order) {
		return fmt.Errorf("visited %d nodes, reference reaches %d", len(order), reached)
	}
	return nil
}

// TestNearestSourcesMatchesReference holds the one-pass multi-source BFS to
// a full BFS per node: ID-ordered sources (the Voronoi form), sources in an
// arbitrary order with duplicates, at radius 0 to 3 and unbounded.
func TestNearestSourcesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var s BFSScratch // one scratch across graphs of every size
	for name, g := range traversalGraphs(t) {
		centers := g.GreedyRulingSet(g.NodesByID(), 2)
		shuffled := make([]int, 0, g.N()/4+3)
		for i := 0; i < g.N()/4+1; i++ {
			shuffled = append(shuffled, rng.Intn(g.N()))
		}
		shuffled = append(shuffled, shuffled[0], shuffled[len(shuffled)/2])
		for _, r := range []int{-1, 0, 1, 2, 3} {
			for kind, sources := range map[string][]int{"centers": centers, "shuffled": shuffled, "all": g.NodesByID()} {
				if err := checkNearestSources(g, sources, r, &s); err != nil {
					t.Errorf("%s, %s sources, r=%d: %v", name, kind, r, err)
				}
			}
		}
	}
}

// TestGreedyRulingSetMatchesReference holds GreedyRulingSet to the
// ball-cover loop it replaced, with every node a candidate and with a
// candidate subset that lists some nodes twice.
func TestGreedyRulingSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for name, g := range traversalGraphs(t) {
		var subset []int
		for v := 0; v < g.N(); v++ {
			if rng.Intn(3) == 0 {
				subset = append(subset, v)
			}
		}
		subset = append(subset, subset...)
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		for _, r := range []int{-1, 0, 1, 2, 4} {
			for kind, candidates := range map[string][]int{"all": g.NodesByID(), "subset": subset} {
				before := slices.Clone(candidates)
				got := g.GreedyRulingSet(candidates, r)
				if want := greedyRulingSetReference(g, candidates, r); !slices.Equal(got, want) {
					t.Errorf("%s, %s candidates, r=%d: %v, reference %v", name, kind, r, got, want)
				}
				if !slices.Equal(candidates, before) {
					t.Errorf("%s, %s candidates, r=%d: the candidate list was modified", name, kind, r)
				}
			}
		}
	}
}

// TestNodesByID pins the one ID order: a permutation of the nodes with
// increasing IDs.
func TestNodesByID(t *testing.T) {
	g := Cycle(40)
	AssignSpreadIDs(g, rand.New(rand.NewSource(3)))
	order := g.NodesByID()
	if len(order) != g.N() {
		t.Fatalf("%d nodes, want %d", len(order), g.N())
	}
	seen := make([]bool, g.N())
	for i, v := range order {
		if seen[v] {
			t.Fatalf("node %d listed twice", v)
		}
		seen[v] = true
		if i > 0 && g.ID(order[i-1]) >= g.ID(v) {
			t.Fatalf("IDs not increasing at position %d", i)
		}
	}
}

// TestInduceReusesStorage rebuilds one graph as two induced subgraphs in
// turn: each equals InducedSubgraph's, and the second build of each
// allocates nothing.
func TestInduceReusesStorage(t *testing.T) {
	g := Torus2D(6, 6)
	AssignPermutedIDs(g, rand.New(rand.NewSource(4)))
	parts := [][]int{{0, 1, 2, 6, 7, 8, 13}, {35, 34, 29, 28, 5, 0}}
	var sub Graph
	var s BFSScratch
	induce := func(nodes []int) {
		s.Begin(g.N())
		for _, v := range nodes {
			s.Visit(v, 0)
		}
		sub.Induce(g, &s)
	}
	for _, nodes := range parts {
		induce(nodes)
		want, _ := g.InducedSubgraph(nodes)
		if sub.Digest() != want.Digest() || !slices.Equal(sub.Edges(), want.Edges()) {
			t.Fatalf("Induce(%v) differs from InducedSubgraph", nodes)
		}
		if err := sub.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, nodes := range parts {
			induce(nodes)
		}
	}); allocs != 0 && !raceEnabled {
		t.Errorf("%.0f allocations per rebuild pair, want 0", allocs)
	}
}

// FuzzNearestSources is TestNearestSourcesMatchesReference on arbitrary
// small graphs: the bytes pick the node count, the edges, the IDs, the
// radius and the sources.
func FuzzNearestSources(f *testing.F) {
	f.Add([]byte{8, 2, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0}, []byte{0, 4}, int64(1))
	f.Add([]byte{12, 255, 0, 1, 0, 2, 1, 3, 2, 3, 4, 5}, []byte{3, 3, 0, 11}, int64(2))
	f.Add([]byte{1, 0}, []byte{0}, int64(0))
	f.Fuzz(func(t *testing.T, shape, sources []byte, seed int64) {
		if len(shape) < 2 || len(sources) == 0 {
			return
		}
		n := 1 + int(shape[0])%24
		r := int(shape[1])%6 - 1 // -1 (unbounded) to 4
		g := New(n)
		for i := 2; i+1 < len(shape); i += 2 {
			u, v := int(shape[i])%n, int(shape[i+1])%n
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		AssignSpreadIDs(g, rand.New(rand.NewSource(seed)))
		src := make([]int, len(sources))
		for i, b := range sources {
			src[i] = int(b) % n
		}
		var s BFSScratch
		if err := checkNearestSources(g, src, r, &s); err != nil {
			t.Fatalf("n=%d r=%d sources %v: %v", n, r, src, err)
		}
	})
}
