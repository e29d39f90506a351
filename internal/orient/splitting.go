package orient

import (
	"fmt"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// This file implements the splitting extension of Section 5: on bipartite
// graphs with all degrees even, a red/blue edge coloring with equally many
// red and blue edges at every node is obtained by composing
//
//	Πv — a 2-coloring of the nodes (trivially encodable, made sparse by
//	     marking only a ruling set and recovering the rest by parity),
//	Πo — a balanced orientation (the Schema of this package), and
//	Πe — the trivial combination step: color red the edges oriented out of
//	     black nodes and blue the edges oriented out of white nodes.
//
// The three stages compose with core.Pipeline exactly as the paper's
// running example composes them with Lemma 1.

// TwoColoringStage encodes a proper 2-coloring of a bipartite graph: a
// (CoverRadius+1, CoverRadius)-ruling set is marked, each marked node
// holding one bit with its side of the bipartition; every other node
// recovers its color from the parity of its distance to the nearest marked
// node (ties broken toward the smallest ID).
type TwoColoringStage struct {
	// CoverRadius is the covering radius of the marked ruling set (the
	// schema's sparsity knob) and the decoding radius.
	CoverRadius int
}

var _ core.VarSchema = TwoColoringStage{}

// Name implements core.VarSchema.
func (TwoColoringStage) Name() string { return "two-coloring" }

// Problem implements core.VarSchema.
func (TwoColoringStage) Problem() lcl.Problem { return lcl.Coloring{K: 2} }

// EncodeVar implements core.VarSchema.
func (t TwoColoringStage) EncodeVar(g *graph.Graph, _ []*lcl.Solution) (core.VarAdvice, error) {
	if t.CoverRadius < 1 {
		return nil, fmt.Errorf("orient: two-coloring cover radius must be >= 1, got %d", t.CoverRadius)
	}
	side, ok := g.Bipartition()
	if !ok {
		return nil, fmt.Errorf("orient: graph is not bipartite")
	}
	set := g.GreedyRulingSet(g.NodesByID(), t.CoverRadius)
	va := make(core.VarAdvice, len(set))
	for _, v := range set {
		va[v] = bitstr.New(side[v])
	}
	return va, nil
}

// DecodeVar implements core.VarSchema.
func (t TwoColoringStage) DecodeVar(g *graph.Graph, va core.VarAdvice, _ []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	advice := va.Dense(g.N())
	outputs, stats, err := local.RunBall(g, advice, t.CoverRadius, func(view *local.View) any {
		// Nearest marked node, ties toward smaller ID.
		best := -1
		for _, u := range view.Nodes() {
			i := int(u)
			if view.Advice[i].Len() != 1 {
				continue
			}
			if best == -1 || view.Dist(i) < view.Dist(best) ||
				view.Dist(i) == view.Dist(best) && view.ID(i) < view.ID(best) {
				best = i
			}
		}
		if best == -1 {
			return fmt.Errorf("orient: no marked node within distance %d", t.CoverRadius)
		}
		// In a bipartite graph all paths between two nodes have the same
		// parity, so any shortest path gives the right color.
		return 1 + (view.Advice[best].Bit(0)+view.Dist(best))%2
	}, local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, fmt.Errorf("orient: node %d: %w", v, err)
		}
		sol.Node[v] = out.(int)
	}
	return sol, stats, nil
}

// SplittingStage is Πe: given a 2-coloring (oracle 0) and a balanced
// orientation (oracle 1), color red (1) the edges oriented out of color-1
// nodes and blue (2) the edges oriented out of color-2 nodes. It needs no
// advice and no communication beyond one round.
type SplittingStage struct{}

var _ core.VarSchema = SplittingStage{}

// Name implements core.VarSchema.
func (SplittingStage) Name() string { return "splitting-combine" }

// Problem implements core.VarSchema.
func (SplittingStage) Problem() lcl.Problem { return lcl.Splitting{} }

// EncodeVar implements core.VarSchema.
func (SplittingStage) EncodeVar(*graph.Graph, []*lcl.Solution) (core.VarAdvice, error) {
	return core.VarAdvice{}, nil
}

// DecodeVar implements core.VarSchema.
func (SplittingStage) DecodeVar(g *graph.Graph, _ core.VarAdvice, oracles []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	if len(oracles) < 2 {
		return nil, local.Stats{}, fmt.Errorf("orient: splitting needs 2-coloring and orientation oracles, got %d", len(oracles))
	}
	colors, orientation := oracles[len(oracles)-2], oracles[len(oracles)-1]
	sol := lcl.NewSolution(g)
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		tail := ed.U
		if orientation.Edge[e] == lcl.TowardU {
			tail = ed.V
		}
		sol.Edge[e] = colors.Node[tail] // red iff the tail is color 1
	}
	return sol, local.Stats{Rounds: 1}, nil
}

// NewSplittingPipeline assembles the composed splitting schema for bipartite
// even-degree graphs: 2-coloring, then balanced orientation, then the
// combine step (Corollary 5.6 via Lemma 1).
func NewSplittingPipeline(coverRadius int, orientParams Params) *core.Pipeline {
	return &core.Pipeline{
		PipelineName: "splitting",
		Stages: []core.VarSchema{
			TwoColoringStage{CoverRadius: coverRadius},
			Schema{P: orientParams},
			SplittingStage{},
		},
	}
}
