package coloring

import (
	"fmt"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// This file implements the paper's actual two-stage decomposition of the
// Δ+1 → Δ step (Section 6.2): Problem 3 first REDUCES the set of uncolored
// vertices to one that is pairwise far apart (Lemma 6.9), and Problem 4 then
// fixes those far-apart roots (Lemma 6.10). ShiftStage solves both at once;
// SpreadStage + ShiftStage solve them separately, giving the four-stage
// pipeline NewDeltaPipelineSplit that mirrors the paper's composition
// structure stage for stage.

// SpacedPartialColoring is Problem 3's output specification: a proper
// labeling with colors 1..Delta+1 in which the color-(Delta+1) nodes (the
// still-uncolored ones) are pairwise at distance greater than Spacing. Its
// checkability radius is Spacing.
type SpacedPartialColoring struct {
	Delta   int
	Spacing int
}

var _ lcl.Problem = SpacedPartialColoring{}

// Name implements lcl.Problem.
func (p SpacedPartialColoring) Name() string {
	return fmt.Sprintf("partial-%d-coloring-spacing-%d", p.Delta, p.Spacing)
}

// Radius implements lcl.Problem.
func (p SpacedPartialColoring) Radius() int { return p.Spacing }

// NodeAlphabet implements lcl.Problem.
func (p SpacedPartialColoring) NodeAlphabet() []int {
	out := make([]int, p.Delta+1)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// EdgeAlphabet implements lcl.Problem.
func (SpacedPartialColoring) EdgeAlphabet() []int { return nil }

// CheckNode implements lcl.Problem.
func (p SpacedPartialColoring) CheckNode(g *graph.Graph, v int, sol *lcl.Solution) error {
	lv := sol.Node[v]
	if lv == lcl.Unset {
		return nil
	}
	for _, w := range g.Neighbors(v) {
		if sol.Node[w] == lv && lv <= p.Delta {
			return fmt.Errorf("nodes %d and %d share color %d", v, w, lv)
		}
	}
	if lv != p.Delta+1 {
		return nil
	}
	for _, u := range g.Ball(v, p.Spacing) {
		if u != v && sol.Node[u] == p.Delta+1 {
			return fmt.Errorf("uncolored nodes %d and %d within distance %d", v, u, p.Spacing)
		}
	}
	return nil
}

// SpreadStage is Lemma 6.9 as a composable stage: given a (Δ+1)-coloring
// oracle, it recolors most of the color-(Δ+1) class down into 1..Δ via
// advice-marked shift paths, keeping only a Spacing-separated subset
// uncolored for the next stage.
type SpreadStage struct {
	Delta   int
	Spacing int
}

var _ core.VarSchema = SpreadStage{}

// Name implements core.VarSchema.
func (s SpreadStage) Name() string { return "spread-uncolored" }

// Problem implements core.VarSchema.
func (s SpreadStage) Problem() lcl.Problem {
	return SpacedPartialColoring{Delta: s.Delta, Spacing: s.Spacing}
}

// EncodeVar implements core.VarSchema.
func (s SpreadStage) EncodeVar(g *graph.Graph, oracles []*lcl.Solution) (core.VarAdvice, error) {
	if len(oracles) == 0 {
		return nil, fmt.Errorf("coloring: spread stage needs a (Δ+1)-coloring oracle")
	}
	if s.Spacing < 1 {
		return nil, fmt.Errorf("coloring: spread stage needs Spacing >= 1, got %d", s.Spacing)
	}
	orig := oracles[len(oracles)-1].Node
	delta := s.Delta

	var uncolored []int
	for v, c := range orig {
		if c == delta+1 {
			uncolored = append(uncolored, v)
		}
	}
	g.SortByID(uncolored)

	// Keep a Spacing-separated subset (greedy by ID); everyone else gets a
	// shift path now.
	kept := g.GreedyRulingSet(uncolored, s.Spacing)
	keep := make([]bool, g.N())
	for _, v := range kept {
		keep[v] = true
	}

	// Reuse the ShiftStage prover for the non-kept nodes; kept nodes (and
	// their neighborhoods) are off limits so they stay uncolored.
	shift := ShiftStage{Delta: delta}
	va := make(core.VarAdvice)
	blocked := make([]bool, g.N())
	for _, v := range kept {
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	newColors := append([]int(nil), orig...)
	for _, v := range uncolored {
		if keep[v] {
			continue
		}
		if blocked[v] {
			return nil, fmt.Errorf("coloring: uncolored node %d blocked before its shift", v)
		}
		path, termColor, err := shift.findShiftPath(g, orig, newColors, blocked, v)
		if err != nil {
			return nil, err
		}
		for i := 0; i+1 < len(path); i++ {
			port := portOf(g, path[i], path[i+1])
			va[path[i]] = bitstr.New(1).Concat(bitstr.FromUint(uint64(port), shift.portWidth()))
			newColors[path[i]] = orig[path[i+1]]
		}
		term := path[len(path)-1]
		va[term] = bitstr.New(0)
		newColors[term] = termColor
		for _, p := range path {
			blocked[p] = true
			for _, u := range g.Neighbors(p) {
				blocked[u] = true
			}
		}
	}
	// Self-check: the result must satisfy Problem 3.
	sol, err := lcl.ColoringSolution(g, newColors)
	if err != nil {
		return nil, err
	}
	if err := lcl.Verify(s.Problem(), g, sol); err != nil {
		return nil, fmt.Errorf("coloring: spread self-check: %w", err)
	}
	return va, nil
}

// DecodeVar implements core.VarSchema: identical decoding to ShiftStage —
// nodes without advice (including the kept uncolored subset) retain their
// oracle color.
func (s SpreadStage) DecodeVar(g *graph.Graph, va core.VarAdvice, oracles []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	return ShiftStage{Delta: s.Delta}.DecodeVar(g, va, oracles)
}

// NewDeltaPipelineSplit is the four-stage Section 6 pipeline with the
// paper's Problem 3 / Problem 4 split made explicit: cluster coloring,
// reduction to Δ+1, spreading the uncolored class, and fixing the roots.
func NewDeltaPipelineSplit(delta, coverRadius, spacing int) *core.Pipeline {
	return &core.Pipeline{
		PipelineName: fmt.Sprintf("%d-coloring-split", delta),
		Stages: []core.VarSchema{
			ClusterColoringStage{CoverRadius: coverRadius},
			ReduceStage{Delta: delta},
			SpreadStage{Delta: delta, Spacing: spacing},
			ShiftStage{Delta: delta},
		},
	}
}
