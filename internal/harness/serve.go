package harness

import (
	"fmt"
	"math/rand"

	"localadvice/internal/graph"
)

// This file is the request-shaped surface of the harness: entry points that
// take plain (family, n, seed) / (experiment id) parameters — the shape of
// an HTTP request — and are shared by the locad CLI and internal/server, so
// a served experiment and a CLI experiment run through identical code.

// graphFamily is one family BuildGraph builds: its name, whether its
// construction reads the seed, and the construction (rng is nil for a
// family that does not).
type graphFamily struct {
	name   string
	seeded bool
	build  func(n int, rng *rand.Rand) (*graph.Graph, error)
}

// graphFamilies is the one table of the families BuildGraph accepts, in
// the order the CLI documents them. Grids and tori use the nearest
// rectangle to n; the seed drives generated structure (regular, planted,
// gnp) and ID permutations.
var graphFamilies = []graphFamily{
	{"cycle", false, func(n int, _ *rand.Rand) (*graph.Graph, error) { return graph.TryCycle(n) }},
	{"path", false, func(n int, _ *rand.Rand) (*graph.Graph, error) { return graph.TryPath(n) }},
	{"grid", false, func(n int, _ *rand.Rand) (*graph.Graph, error) {
		side := intSqrt(n)
		return graph.TryGrid2D(side, (n+side-1)/side)
	}},
	{"torus", false, func(n int, _ *rand.Rand) (*graph.Graph, error) {
		side := max(intSqrt(n), 3)
		return graph.TryTorus2D(side, (n+side-1)/side)
	}},
	{"regular", true, func(n int, rng *rand.Rand) (*graph.Graph, error) { return graph.RandomRegular(n, 4, rng) }},
	{"planted3", true, func(n int, rng *rand.Rand) (*graph.Graph, error) {
		g, _ := graph.RandomColorable(n, 3, 0.12, rng)
		graph.AssignPermutedIDs(g, rng)
		return g, nil
	}},
	{"planted4", true, func(n int, rng *rand.Rand) (*graph.Graph, error) {
		g, _ := graph.RandomColorable(n, 4, 0.22, rng)
		graph.AssignPermutedIDs(g, rng)
		return g, nil
	}},
	{"gnp", true, func(n int, rng *rand.Rand) (*graph.Graph, error) {
		if n < 1 {
			return nil, fmt.Errorf("gnp graph needs n >= 1, got %d", n)
		}
		// Expected degree ~8 regardless of n — the sparse unstructured
		// regime the decomposition and message-reduction sweeps use.
		g := graph.RandomGNP(n, 8.0/float64(n), rng)
		graph.AssignPermutedIDs(g, rng)
		return g, nil
	}},
}

// GraphFamilies lists the graph families BuildGraph accepts, in the order
// the CLI documents them.
func GraphFamilies() []string {
	names := make([]string, len(graphFamilies))
	for i, f := range graphFamilies {
		names[i] = f.name
	}
	return names
}

// GraphReadsSeed reports whether BuildGraph's construction of family reads
// the seed. The other families (cycle, path, grid, torus) give one graph
// at every seed. An unknown family counts as reading it.
func GraphReadsSeed(family string) bool {
	for _, f := range graphFamilies {
		if f.name == family {
			return f.seeded
		}
	}
	return true
}

// BuildGraph constructs a graph from a family name, target size and seed —
// the shared graph-construction vocabulary of the locad CLI flags and the
// serving API's graph specs (graphFamilies).
func BuildGraph(family string, n int, seed int64) (*graph.Graph, error) {
	for _, f := range graphFamilies {
		if f.name != family {
			continue
		}
		var rng *rand.Rand
		if f.seeded {
			rng = rand.New(rand.NewSource(seed))
		}
		return f.build(n, rng)
	}
	return nil, fmt.Errorf("unknown graph family %q", family)
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// RunOne runs a single experiment by ID (case-insensitive), optionally
// observed through a fresh obs collector, and returns its result. It is the
// single-experiment form of RunManyObserved used by the serving layer's
// /v1/experiment endpoint.
func RunOne(id string, observe bool) (ExperimentResult, error) {
	e, ok := ByID(id)
	if !ok {
		return ExperimentResult{}, fmt.Errorf("unknown experiment %q (have %v)", id, IDs())
	}
	results, err := RunManyObserved([]Experiment{e}, 1, observe)
	if err != nil {
		return ExperimentResult{}, err
	}
	return results[0], nil
}
