package lcl

import (
	"fmt"

	"localadvice/internal/graph"
)

// RulingSet is the (2, Beta)-ruling set problem as an LCL with checkability
// radius Beta (Section 3.1): label 1 marks set members, which must be
// pairwise non-adjacent, and every node must have a member within distance
// Beta. It is the one problem family in this codebase whose radius exceeds
// 1, exercising the r̄ > 1 paths of the Section 4 machinery (thicker
// boundary strips, wider verifier balls).
type RulingSet struct{ Beta int }

var _ Problem = RulingSet{}

// Name implements Problem.
func (r RulingSet) Name() string { return fmt.Sprintf("(2,%d)-ruling-set", r.Beta) }

// Radius implements Problem.
func (r RulingSet) Radius() int { return r.Beta }

// NodeAlphabet implements Problem.
func (RulingSet) NodeAlphabet() []int { return []int{1, 2} }

// EdgeAlphabet implements Problem.
func (RulingSet) EdgeAlphabet() []int { return nil }

// CheckNode implements Problem.
func (r RulingSet) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	if sol.Node[v] == Unset {
		return nil
	}
	if sol.Node[v] == 1 {
		for _, w := range g.Neighbors(v) {
			if sol.Node[w] == 1 {
				return violated("adjacent ruling nodes %d and %d", v, w)
			}
		}
		return nil
	}
	// Domination within Beta; only a definite violation when the whole
	// ball is decided.
	anyUnset := false
	for _, u := range g.Ball(v, r.Beta) {
		switch sol.Node[u] {
		case 1:
			return nil
		case Unset:
			anyUnset = true
		}
	}
	if anyUnset {
		return nil
	}
	return violated("node %d has no ruling node within distance %d", v, r.Beta)
}
