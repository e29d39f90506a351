package harness

import (
	"fmt"
	"math/rand"

	"localadvice/internal/decomp"
	"localadvice/internal/graph"
)

// e11Graphs returns the graph families of the decomposition sweep: the
// 1-dimensional extreme (cycle), the paper's bounded-growth regime (grid,
// torus), and an unstructured random graph. IDs are permuted so nothing
// depends on construction order.
func e11Graphs() []struct {
	name string
	g    *graph.Graph
} {
	rng := rand.New(rand.NewSource(11))
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(1024)},
		{"grid", graph.Grid2D(32, 32)},
		{"torus", graph.Torus2D(32, 32)},
		{"gnp", graph.RandomGNP(512, 8.0/512.0, rng)},
	}
	for _, e := range gs {
		graph.AssignPermutedIDs(e.g, rng)
	}
	return gs
}

// RunE11 measures the (β, O(log n/β)) low-diameter decomposition
// (Miller–Peng–Xu exponential shifts) across graph families and rates: for
// each (family, β) pair the table reports the ball count, the shift horizon,
// the maximum and mean ball radius, and the cut-edge fraction — the two
// sides of the MPX trade-off (cut fraction grows with β, radii shrink as
// O(log n/β)). Every decomposition is revalidated against the full
// structural invariant check before its row is emitted, and the whole sweep
// is deterministic in the fixed seed, so the table is golden-pinned.
func RunE11() (*Table, error) {
	t := &Table{
		ID: "E11", Title: "Low-diameter decomposition: balls, radii and cut fraction vs beta",
		Header: []string{"family", "n", "m", "beta", "balls", "max.shift", "max.rad", "mean.rad", "cut.frac"},
	}
	const seed = 1109
	for _, e := range e11Graphs() {
		g := e.g
		for _, beta := range []float64{0.05, 0.1, 0.2, 0.4} {
			d11, err := decomp.Decompose(g, beta, seed)
			if err != nil {
				return nil, fmt.Errorf("E11 %s beta %v: %w", e.name, beta, err)
			}
			if err := d11.Validate(g); err != nil {
				return nil, fmt.Errorf("E11 %s beta %v: %w", e.name, beta, err)
			}
			t.AddRow(e.name, d(g.N()), d(g.M()), f2(beta),
				d(d11.Balls()), d(int(d11.MaxShift)), d(d11.MaxRadius()),
				f2(d11.MeanRadius()), f4(d11.CutFraction()))
		}
	}
	t.Notes = append(t.Notes,
		"decomposition: per-node integer exponential shifts with rate beta (seeded), one multi-source BFS with shifted start times; a node joins the first wave to reach it",
		"every decomposition passes the full invariant check (exactly one ball per node, BFS depths, radius <= center shift, exact cut recount) before its row is emitted",
		"the MPX trade-off reads across each family's rows: larger beta cuts more edges (cut.frac ~ O(beta)) but shrinks radii (O(log n / beta)); lll.SolveDecomposed runs this construction on the LLL event graph and resolves the instance ball by ball",
		"regenerate with: go run ./cmd/locad exp E11")
	return t, nil
}
