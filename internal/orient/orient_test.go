package orient

import (
	"math/rand"
	"slices"
	"testing"

	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	reg8, err := graph.RandomRegular(60, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := graph.RandomRegular(40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	gnp := graph.RandomGNP(50, 0.1, rng)
	graph.AssignPermutedIDs(gnp, rng)
	return map[string]*graph.Graph{
		"cycle50":  graph.Cycle(50),
		"cycle5":   graph.Cycle(5),
		"torus6x6": graph.Torus2D(6, 6),
		"grid5x8":  graph.Grid2D(5, 8),
		"4regular": reg8,
		"3regular": odd,
		"gnp":      gnp,
		"star7":    graph.Star(7),
		"path9":    graph.Path(9),
		"evendeg":  graph.RandomEvenDegree(40, 6, rng),
		"cpower":   graph.CyclePowers(30, 3),
		"twoComps": graph.DisjointUnion(graph.Cycle(30), graph.Torus2D(4, 4)),
	}
}

func TestDecomposeInvariants(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			dec := Decompose(g)
			if err := dec.Check(g); err != nil {
				t.Fatal(err)
			}
			// Open-trail ends are odd-degree nodes; closed trails have none.
			for _, tr := range dec.Trails {
				if tr.Closed {
					continue
				}
				for _, end := range []int{tr.Nodes[0], tr.Nodes[len(tr.Nodes)-1]} {
					if g.Degree(end)%2 == 0 {
						t.Errorf("open trail ends at even-degree node %d", end)
					}
				}
			}
		})
	}
}

func TestDecomposeCycleSingleTrail(t *testing.T) {
	dec := Decompose(graph.Cycle(12))
	if len(dec.Trails) != 1 || !dec.Trails[0].Closed || dec.Trails[0].Len() != 12 {
		t.Errorf("cycle decomposition: %d trails", len(dec.Trails))
	}
}

func TestDecomposePathSingleOpenTrail(t *testing.T) {
	dec := Decompose(graph.Path(7))
	if len(dec.Trails) != 1 || dec.Trails[0].Closed || dec.Trails[0].Len() != 6 {
		t.Errorf("path decomposition wrong: %+v", dec.Trails)
	}
}

func TestBalancedBaseline(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			sol := Balanced(g)
			if err := lcl.Verify(lcl.BalancedOrientation{}, g, sol); err != nil {
				t.Fatal(err)
			}
			// Even-degree nodes must be exactly balanced.
			for v := 0; v < g.N(); v++ {
				if g.Degree(v)%2 == 0 && lcl.InDegree(g, v, sol) != lcl.OutDegree(g, v, sol) {
					t.Errorf("even node %d not exactly balanced", v)
				}
			}
		})
	}
}

func TestCanonicalDirectionRotationInvariant(t *testing.T) {
	g := graph.Cycle(9)
	dec := Decompose(g)
	tr := dec.Trails[0]
	dirs1 := make([]int, g.M())
	OrientTrail(g, &tr, CanonicalDirection(g, &tr), dirs1)

	// Rotate the trail representation and re-derive: physical orientation
	// must be identical.
	k := 4
	rot := Trail{Closed: true}
	L := tr.Len()
	for i := 0; i <= L; i++ {
		rot.Nodes = append(rot.Nodes, tr.Nodes[(i+k)%L])
	}
	for i := 0; i < L; i++ {
		rot.Edges = append(rot.Edges, tr.Edges[(i+k)%L])
	}
	dirs2 := make([]int, g.M())
	OrientTrail(g, &rot, CanonicalDirection(g, &rot), dirs2)
	for e := range dirs1 {
		if dirs1[e] != dirs2[e] {
			t.Fatalf("edge %d oriented differently under rotation", e)
		}
	}
}

type walkResult struct {
	nodes, edges []int
	wrapped      bool
}

// viewWalk runs the decoder's walk from start through its incident edge
// first on start's RunBall view of g at the given radius, reaching first
// through the view's IncidentEdges as decodeNode does.
func viewWalk(t *testing.T, g *graph.Graph, radius, start, first, maxSteps int) walkResult {
	t.Helper()
	outs, _, err := local.RunBall(g, nil, radius, func(view *local.View) any {
		if view.Center != start || !slices.Contains(view.IncidentEdges(start), first) {
			return nil
		}
		nodes, edges, wrapped := walk(view, start, first, maxSteps, nil, nil)
		return walkResult{nodes, edges, wrapped}
	}, local.RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := outs[start].(walkResult)
	if !ok {
		t.Fatalf("edge %d is not incident to node %d", first, start)
	}
	return w
}

// TestWalkMatchesTrail walks every trail of a torus (closed trails) and of
// a grid (open trails too) from its first node on a view whose radius
// exceeds the trail, so every walked node sees all its edges, and checks
// that the decoder's walk retraces the decomposition's trail.
func TestWalkMatchesTrail(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"torus5x5": graph.Torus2D(5, 5),
		"grid4x5":  graph.Grid2D(4, 5),
	} {
		dec := Decompose(g)
		for i := range dec.Trails {
			tr := &dec.Trails[i]
			w := viewWalk(t, g, tr.Len()+1, tr.Nodes[0], tr.Edges[0], tr.Len())
			if w.wrapped != tr.Closed {
				t.Fatalf("%s trail %d: wrapped %v, closed %v", name, i, w.wrapped, tr.Closed)
			}
			if !slices.Equal(w.edges, tr.Edges) || !slices.Equal(w.nodes, tr.Nodes) {
				t.Fatalf("%s trail %d: walk %v over %v, trail %v over %v", name, i, w.nodes, w.edges, tr.Nodes, tr.Edges)
			}
		}
	}
}

func TestWalkTruncates(t *testing.T) {
	g := graph.Cycle(20)
	w := viewWalk(t, g, 6, 0, g.IncidentEdges(0)[0], 5)
	if w.wrapped || len(w.edges) != 5 || len(w.nodes) != 6 {
		t.Errorf("truncated walk wrong: %d edges, %d nodes, wrapped %v", len(w.edges), len(w.nodes), w.wrapped)
	}
}

func TestSchemaRoundtrip(t *testing.T) {
	s := Schema{P: DefaultParams()}
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			va, err := s.EncodeVar(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			sol, stats, err := s.DecodeVar(g, va, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Verify(lcl.BalancedOrientation{}, g, sol); err != nil {
				t.Fatal(err)
			}
			if stats.Rounds != s.P.DecodeRadius() {
				t.Errorf("rounds = %d, want %d", stats.Rounds, s.P.DecodeRadius())
			}
		})
	}
}

func TestSchemaMatchesCanonicalOrientation(t *testing.T) {
	// The decoded orientation must be exactly the canonical baseline (the
	// schema encodes that specific solution).
	g := graph.Cycle(100)
	s := Schema{P: DefaultParams()}
	va, err := s.EncodeVar(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := s.DecodeVar(g, va, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Balanced(g)
	for e := range sol.Edge {
		if sol.Edge[e] != want.Edge[e] {
			t.Fatalf("edge %d: decoded %d, canonical %d", e, sol.Edge[e], want.Edge[e])
		}
	}
}

func TestSchemaAdviceShape(t *testing.T) {
	g := graph.Cycle(200)
	s := Schema{P: DefaultParams()}
	va, err := s.EncodeVar(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	outOnes := 0
	for _, payload := range va {
		if payload.Len() != 2 || payload.Bit(0) != 1 {
			t.Fatalf("unexpected payload %v", payload)
		}
		outOnes += payload.Bit(1)
	}
	if len(va) == 0 || len(va)%2 != 0 || outOnes != len(va)/2 {
		t.Errorf("marked pairs malformed: %d holders, %d out-bits", len(va), outOnes)
	}
	// Composability shape: at most a constant number of holders per
	// alpha-ball with alpha = half the spacing.
	if err := core.CheckComposable(g, va, s.P.MarkSpacing/2, 4, 2); err != nil {
		t.Errorf("composability: %v", err)
	}
}

func TestSchemaNoAdviceOnShortTrails(t *testing.T) {
	s := Schema{P: DefaultParams()}
	g := graph.Cycle(10) // shorter than the short bound
	va, err := s.EncodeVar(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(va) != 0 {
		t.Errorf("short cycle got advice: %v", va)
	}
	sol, _, err := s.DecodeVar(g, va, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lcl.Verify(lcl.BalancedOrientation{}, g, sol); err != nil {
		t.Error(err)
	}
}

func TestSchemaInvalidParams(t *testing.T) {
	bad := Schema{P: Params{MarkSpacing: 0, MarkWindow: 3}}
	if _, err := bad.EncodeVar(graph.Cycle(5), nil); err == nil {
		t.Error("zero spacing accepted")
	}
	bad2 := Schema{P: Params{MarkSpacing: 5, MarkWindow: 0}}
	if _, err := bad2.EncodeVar(graph.Cycle(5), nil); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSchemaSparsitySweep(t *testing.T) {
	// Larger spacing must not increase the number of bit holders.
	g := graph.Cycle(400)
	prev := -1
	for _, spacing := range []int{8, 16, 32} {
		s := Schema{P: Params{MarkSpacing: spacing, MarkWindow: 8}}
		va, err := s.EncodeVar(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.DecodeVar(g, va, nil); err != nil {
			t.Fatal(err)
		}
		holders := len(va)
		if prev != -1 && holders > prev {
			t.Errorf("spacing %d has %d holders, more than previous %d", spacing, holders, prev)
		}
		prev = holders
	}
}
