package coloring

import (
	"fmt"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// No-advice baselines for the Section 6/7 problems. Both Δ-coloring of
// Δ-colorable graphs and 3-coloring of 3-colorable graphs are global
// problems in the LOCAL model: without advice, the only always-correct
// deterministic algorithm is "gather the whole component and solve", whose
// round count is the component diameter (i.e., Θ(n) on paths and cycles).
// These baselines quantify the separation the advice schemas buy: constant
// (parameter-dependent) rounds versus diameter rounds.

// NoAdviceColoring solves the K-coloring problem by full gathering: every
// node learns its entire component and runs the deterministic exact solver.
// It returns the coloring and the honest round count (the maximum component
// diameter; every node must see its whole component to be sure of a
// globally consistent choice).
func NoAdviceColoring(g *graph.Graph, k int) (*lcl.Solution, local.Stats, error) {
	comp, count := g.Components()
	sol := lcl.NewSolution(g)
	rounds := 0
	for c := 0; c < count; c++ {
		var members []int
		for v := 0; v < g.N(); v++ {
			if comp[v] == c {
				members = append(members, v)
			}
		}
		sub, orig := g.InducedSubgraph(members)
		colors, ok, err := kColoring(sub, k, searchBudget)
		if err != nil {
			return nil, local.Stats{}, fmt.Errorf("coloring: component %d: %w", c, err)
		}
		if !ok {
			return nil, local.Stats{}, fmt.Errorf("coloring: component %d is not %d-colorable", c, k)
		}
		for si, v := range orig {
			sol.Node[v] = colors[si]
		}
		if d := sub.Diameter(); d > rounds {
			rounds = d
		}
	}
	return sol, local.Stats{Rounds: rounds}, nil
}
