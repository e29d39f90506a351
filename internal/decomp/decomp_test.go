package decomp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"localadvice/internal/graph"
)

// decompGraphs is the family sweep of the decomposition property tests —
// one representative per generator family, permuted IDs, mirroring the
// engine suite's propertyGraphs.
func decompGraphs(t *testing.T, seed int64) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg, err := graph.RandomRegular(64, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs := map[string]*graph.Graph{
		"cycle":   graph.Cycle(40),
		"path":    graph.Path(23),
		"grid":    graph.Grid2D(6, 8),
		"torus":   graph.Torus2D(5, 7),
		"tree":    graph.CompleteBinaryTree(5),
		"star":    graph.Star(9),
		"regular": reg,
		"gnp":     graph.RandomGNP(48, 0.1, rng),
	}
	for _, g := range gs {
		graph.AssignPermutedIDs(g, rng)
	}
	return gs
}

// TestDecomposeInvariants is the structural property test: over every graph
// family, rate and seed, the decomposition satisfies every invariant
// Validate checks — exactly one ball per node, centers at depth 0, BFS
// depths, the radius <= center-shift bound, exact radii and cut counts.
func TestDecomposeInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, g := range decompGraphs(t, seed) {
			for _, beta := range []float64{0.05, 0.3, 1.5} {
				d, err := Decompose(g, beta, seed*17)
				if err != nil {
					t.Fatalf("seed %d %s beta %v: %v", seed, name, beta, err)
				}
				if err := d.Validate(g); err != nil {
					t.Fatalf("seed %d %s beta %v: %v", seed, name, beta, err)
				}
				if d.Balls() < 1 || d.Balls() > g.N() {
					t.Fatalf("seed %d %s beta %v: %d balls on %d nodes", seed, name, beta, d.Balls(), g.N())
				}
				if f := d.CutFraction(); f < 0 || f > 1 {
					t.Fatalf("seed %d %s beta %v: cut fraction %v", seed, name, beta, f)
				}
			}
		}
	}
}

// TestDecomposeBetaValidation checks the ErrBeta boundary: zero, negative,
// NaN and infinite rates are typed errors; a small positive rate is not.
func TestDecomposeBetaValidation(t *testing.T) {
	g := graph.Cycle(12)
	for _, beta := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Decompose(g, beta, 1); !errors.Is(err, ErrBeta) {
			t.Errorf("beta %v: got %v, want ErrBeta", beta, err)
		}
	}
	if _, err := Decompose(g, 0.2, 1); err != nil {
		t.Fatalf("beta 0.2 rejected: %v", err)
	}
}

// TestDecomposeTinyBeta pins the float64 shift clamp: a denormal-scale β
// passes validation but makes -log(1-u)/β overflow int32, so the clamp must
// happen before the conversion. Shifts saturate at n and the decomposition
// stays valid.
func TestDecomposeTinyBeta(t *testing.T) {
	g := graph.Grid2D(8, 8)
	d, err := Decompose(g, 1e-300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	n := int32(g.N())
	for v, s := range d.Shift {
		if s < 0 || s > n {
			t.Fatalf("node %d shift %d outside [0, %d]", v, s, n)
		}
	}
}

// TestDecomposeEdgeCases covers degenerate graphs: empty, a single node,
// an edgeless graph (every node its own ball), and a disconnected graph
// (every component fully covered).
func TestDecomposeEdgeCases(t *testing.T) {
	empty, err := Decompose(graph.New(0), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Validate(graph.New(0)); err != nil {
		t.Fatal(err)
	}
	if empty.Balls() != 0 || empty.CutFraction() != 0 {
		t.Fatalf("empty graph: %d balls, cut %v", empty.Balls(), empty.CutFraction())
	}

	single := graph.New(1)
	d, err := Decompose(single, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(single); err != nil {
		t.Fatal(err)
	}
	if d.Balls() != 1 || d.MaxRadius() != 0 {
		t.Fatalf("single node: %d balls, max radius %d", d.Balls(), d.MaxRadius())
	}

	edgeless := graph.New(7)
	d, err = Decompose(edgeless, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(edgeless); err != nil {
		t.Fatal(err)
	}
	if d.Balls() != 7 {
		t.Fatalf("edgeless graph: %d balls, want one per node", d.Balls())
	}
	if d.CutFraction() != 0 {
		t.Fatalf("edgeless graph: cut fraction %v", d.CutFraction())
	}

	// Two disjoint triangles: waves cannot jump components, so each
	// component holds at least one ball and every node is still covered.
	two := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		two.MustAddEdge(e[0], e[1])
	}
	d, err = Decompose(two, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(two); err != nil {
		t.Fatal(err)
	}
	if d.Ball[0] == d.Ball[3] {
		t.Fatal("nodes of disjoint components share a ball")
	}
}

// TestDecomposeSeedSensitivity checks that the seed actually drives the
// shifts: two different seeds on a non-trivial graph give different
// decompositions (while each is individually reproducible).
func TestDecomposeSeedSensitivity(t *testing.T) {
	g := graph.Grid2D(16, 16)
	a, err := Decompose(g, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(g, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Ball, b.Ball) && reflect.DeepEqual(a.Shift, b.Shift) {
		t.Fatal("seeds 1 and 2 produced identical decompositions")
	}
	a2, err := Decompose(g, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, a2) {
		t.Fatal("same (graph, beta, seed) not reproducible")
	}
}

// TestDecomposeBetaScaling sanity-checks the MPX trade-off on a grid: a
// much larger rate yields at least as many balls and no larger a maximum
// radius.
func TestDecomposeBetaScaling(t *testing.T) {
	g := graph.Grid2D(16, 16)
	coarse, err := Decompose(g, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Decompose(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Balls() < coarse.Balls() {
		t.Fatalf("beta 2 gave %d balls, beta 0.05 gave %d", fine.Balls(), coarse.Balls())
	}
	if fine.MaxRadius() > coarse.MaxRadius() {
		t.Fatalf("beta 2 max radius %d exceeds beta 0.05's %d", fine.MaxRadius(), coarse.MaxRadius())
	}
}

// TestValidateRejects is the oracle's own test: a hand-built valid
// decomposition of the path 0-1-2-3 (balls {0,1} and {2,3}, centered at 0
// and 3) passes Validate, and each single corruption of it fails.
func TestValidateRejects(t *testing.T) {
	g := graph.Path(4)
	valid := func() *Decomposition {
		return &Decomposition{
			Beta: 0.5, Seed: 1,
			Ball:     []int32{0, 0, 1, 1},
			Shift:    []int32{2, 0, 0, 2},
			Depth:    []int32{0, 1, 1, 0},
			Centers:  []int32{0, 3},
			Radius:   []int32{1, 1},
			MaxShift: 2,
			CutEdges: 1,
			Edges:    3,
		}
	}
	d := valid()
	if err := d.Validate(g); err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
	if got := d.MeanRadius(); got != 1 {
		t.Fatalf("MeanRadius = %v, want 1", got)
	}
	if got := (&Decomposition{}).MeanRadius(); got != 0 {
		t.Fatalf("MeanRadius of no balls = %v, want 0", got)
	}
	corruptions := map[string]func(d *Decomposition){
		"short ball slice":       func(d *Decomposition) { d.Ball = d.Ball[:3] },
		"radius count":           func(d *Decomposition) { d.Radius = d.Radius[:1] },
		"no balls":               func(d *Decomposition) { d.Centers, d.Radius = nil, nil },
		"center out of range":    func(d *Decomposition) { d.Centers[1] = 4 },
		"center in another ball": func(d *Decomposition) { d.Centers[1] = 0 },
		"center below depth 0":   func(d *Decomposition) { d.Depth[0] = 1 },
		"ball out of range":      func(d *Decomposition) { d.Ball[1] = 2 },
		"unassigned node":        func(d *Decomposition) { d.Depth[1] = -1 },
		"depth beyond shift":     func(d *Decomposition) { d.Shift[0] = 0 },
		"no parent":              func(d *Decomposition) { d.Depth[2] = 2 },
		"second depth-0 node":    func(d *Decomposition) { d.Depth[1] = 0 },
		"wrong radius":           func(d *Decomposition) { d.Radius[0] = 2 },
		"wrong cut count":        func(d *Decomposition) { d.CutEdges = 0 },
		"wrong edge count":       func(d *Decomposition) { d.Edges = 2 },
	}
	for name, corrupt := range corruptions {
		d := valid()
		corrupt(d)
		if err := d.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, d)
		}
	}
	empty := &Decomposition{Centers: []int32{0}, Radius: []int32{0}}
	if err := empty.Validate(graph.New(0)); err == nil {
		t.Error("Validate accepted a ball on an empty graph")
	}
}
