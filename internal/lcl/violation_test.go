package lcl

import (
	"testing"

	"localadvice/internal/graph"
)

// TestViolationTexts pins the exact violation messages of every built-in
// problem, both as CheckNode reports them and as Verify wraps them. They
// reach users verbatim (decode error bodies, experiment tables, CLI
// output), so a refactor of how violations are built must not change a
// byte of them.
func TestViolationTexts(t *testing.T) {
	allEdges := func(g *graph.Graph, label int) *Solution {
		sol := NewSolution(g)
		for e := range sol.Edge {
			sol.Edge[e] = label
		}
		return sol
	}
	nodes := func(g *graph.Graph, labels ...int) *Solution {
		sol := NewSolution(g)
		copy(sol.Node, labels)
		return sol
	}
	// intoZero orients every edge of g toward node 0 and the rest from
	// lower to higher index.
	intoZero := func(g *graph.Graph) *Solution {
		sol := NewSolution(g)
		for e, ed := range g.Edges() {
			sol.Edge[e] = TowardV
			if ed.U == 0 {
				sol.Edge[e] = TowardU
			}
		}
		return sol
	}
	path3, path7, k4, star2 := graph.Path(3), graph.Path(7), graph.Complete(4), graph.Star(2)
	cases := []struct {
		name   string
		p      Problem
		g      *graph.Graph
		sol    *Solution
		v      int
		check  string
		verify string
	}{
		{"coloring", Coloring{K: 3}, graph.Path(2), nodes(graph.Path(2), 2, 2), 0,
			"nodes 0 and 1 share color 2",
			"lcl: 3-coloring: constraint at node 0: nodes 0 and 1 share color 2"},
		{"mis/adjacent", MIS{}, path3, nodes(path3, 2, 1, 1), 1,
			"adjacent nodes 1 and 2 both in the set",
			"lcl: mis: constraint at node 1: adjacent nodes 1 and 2 both in the set"},
		{"mis/undominated", MIS{}, path3, nodes(path3, 1, 2, 2), 2,
			"node 2 is out of the set with no in-set neighbor",
			"lcl: mis: constraint at node 2: node 2 is out of the set with no in-set neighbor"},
		{"matching/two", MaximalMatching{}, path3, allEdges(path3, 1), 1,
			"node 1 has 2 matched edges",
			"lcl: maximal-matching: constraint at node 1: node 1 has 2 matched edges"},
		{"matching/addable", MaximalMatching{}, path3, allEdges(path3, 2), 0,
			"edge {0,1} could be added to the matching",
			"lcl: maximal-matching: constraint at node 0: edge {0,1} could be added to the matching"},
		{"sinkless", SinklessOrientation{}, k4, intoZero(k4), 0,
			"node 0 is a sink",
			"lcl: sinkless-orientation: constraint at node 0: node 0 is a sink"},
		{"balanced", BalancedOrientation{}, star2, intoZero(star2), 0,
			"node 0 has indegree 2, outdegree 0",
			"lcl: balanced-orientation: constraint at node 0: node 0 has indegree 2, outdegree 0"},
		{"edge-coloring", EdgeColoring{K: 2}, path3, allEdges(path3, 1), 1,
			"edges 0 and 1 at node 1 share color 1",
			"lcl: 2-edge-coloring: constraint at node 1: edges 0 and 1 at node 1 share color 1"},
		{"splitting", Splitting{}, graph.Cycle(4), allEdges(graph.Cycle(4), 1), 0,
			"node 0 has 2 red and 0 blue edges",
			"lcl: splitting: constraint at node 0: node 0 has 2 red and 0 blue edges"},
		{"weak-coloring", WeakColoring{K: 2}, path3, nodes(path3, 1, 1, 1), 0,
			"node 0 has all neighbors with its own label 1",
			"lcl: weak-2-coloring: constraint at node 0: node 0 has all neighbors with its own label 1"},
		{"ruling/adjacent", RulingSet{Beta: 2}, path3, nodes(path3, 2, 1, 1), 1,
			"adjacent ruling nodes 1 and 2",
			"lcl: (2,2)-ruling-set: constraint at node 1: adjacent ruling nodes 1 and 2"},
		{"ruling/uncovered", RulingSet{Beta: 2}, path7, nodes(path7, 1, 2, 2, 2, 2, 2, 1), 3,
			"node 3 has no ruling node within distance 2",
			"lcl: (2,2)-ruling-set: constraint at node 3: node 3 has no ruling node within distance 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.CheckNode(tc.g, tc.v, tc.sol)
			if err == nil {
				t.Fatalf("CheckNode(%d) accepted the violating solution", tc.v)
			}
			if got := err.Error(); got != tc.check {
				t.Errorf("CheckNode(%d) = %q, want %q", tc.v, got, tc.check)
			}
			err = Verify(tc.p, tc.g, tc.sol)
			if err == nil {
				t.Fatal("Verify accepted the violating solution")
			}
			if got := err.Error(); got != tc.verify {
				t.Errorf("Verify = %q, want %q", got, tc.verify)
			}
		})
	}
}
