package lcl

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"localadvice/internal/graph"
)

// solveBudgetReference is the original map-based SolveBudget, kept as the
// oracle the slice-based solver must match: the same variable order (IDs,
// then edges by sorted endpoint-ID pair), the same alphabet order, the same
// pruning set (check nodes within distance r of the variable) and the same
// step count.
func solveBudgetReference(p Problem, g *graph.Graph, partial *Solution, checkNodes []int, maxSteps int) (*Solution, bool) {
	sol := partial.Clone()
	for _, v := range checkNodes {
		if p.CheckNode(g, v, sol) != nil {
			return nil, false
		}
	}
	type variable struct {
		isEdge bool
		index  int
	}
	var vars []variable
	if p.NodeAlphabet() != nil {
		order := make([]int, g.N())
		for v := range order {
			order[v] = v
		}
		sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })
		for _, v := range order {
			if sol.Node[v] == Unset {
				vars = append(vars, variable{isEdge: false, index: v})
			}
		}
	}
	if p.EdgeAlphabet() != nil {
		order := make([]int, g.M())
		for e := range order {
			order[e] = e
		}
		sort.Slice(order, func(a, b int) bool {
			ea, eb := g.Edge(order[a]), g.Edge(order[b])
			loA, hiA := sortedIDs(g, ea)
			loB, hiB := sortedIDs(g, eb)
			if loA != loB {
				return loA < loB
			}
			return hiA < hiB
		})
		for _, e := range order {
			if sol.Edge[e] == Unset {
				vars = append(vars, variable{isEdge: true, index: e})
			}
		}
	}

	check := make(map[int]bool, len(checkNodes))
	for _, v := range checkNodes {
		check[v] = true
	}

	r := p.Radius()
	affected := make([][]int, len(vars))
	for i, va := range vars {
		seen := map[int]bool{}
		if va.isEdge {
			ed := g.Edge(va.index)
			for _, v := range g.Ball(ed.U, r) {
				seen[v] = true
			}
			for _, v := range g.Ball(ed.V, r) {
				seen[v] = true
			}
		} else {
			for _, v := range g.Ball(va.index, r) {
				seen[v] = true
			}
		}
		for v := range seen {
			if check[v] {
				affected[i] = append(affected[i], v)
			}
		}
		sort.Ints(affected[i])
	}

	verify := func() bool {
		for _, v := range checkNodes {
			if p.CheckNode(g, v, sol) != nil {
				return false
			}
		}
		return true
	}

	steps := 0
	var backtrack func(i int) bool
	backtrack = func(i int) bool {
		if i == len(vars) {
			return verify()
		}
		va := vars[i]
		var domain []int
		if va.isEdge {
			domain = p.EdgeAlphabet()
		} else {
			domain = p.NodeAlphabet()
		}
		for _, label := range domain {
			steps++
			if maxSteps > 0 && steps > maxSteps {
				return false
			}
			if va.isEdge {
				sol.Edge[va.index] = label
			} else {
				sol.Node[va.index] = label
			}
			ok := true
			for _, v := range affected[i] {
				if p.CheckNode(g, v, sol) != nil {
					ok = false
					break
				}
			}
			if ok && backtrack(i+1) {
				return true
			}
		}
		if va.isEdge {
			sol.Edge[va.index] = Unset
		} else {
			sol.Node[va.index] = Unset
		}
		return false
	}
	if !backtrack(0) {
		return nil, false
	}
	return sol, true
}

// allProblems lists every problem the package defines.
var allProblems = []Problem{
	Coloring{K: 3}, MIS{}, MaximalMatching{}, SinklessOrientation{},
	BalancedOrientation{}, EdgeColoring{K: 3}, Splitting{}, WeakColoring{K: 2},
	RulingSet{Beta: 2},
}

// TestSolveBudgetMatchesReference drives SolveBudget and the map-based
// reference with the same seeded instances: random G(n,p) graphs of 3–12
// nodes with permuted IDs, every problem, random partial labels (which may
// conflict) and random check-node subsets, at budgets 1, 3, 10 and 50, and
// at budget 0 (unbounded) when at most maxFree labels are unset, so that
// an exhaustive refutation stays small. Both must agree on the ok flag and
// the whole solution. For satisfiable instances it also finds the smallest
// budget at which the reference succeeds and checks that budget and the
// one below it, which pins the step count exactly.
func TestSolveBudgetMatchesReference(t *testing.T) {
	const maxFree = 12
	rng := rand.New(rand.NewSource(14))
	instances, boundaries := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(10)
		g := graph.RandomGNP(n, 0.1+0.5*rng.Float64(), rng)
		graph.AssignPermutedIDs(g, rng)
		for _, p := range allProblems {
			partial := randomPartial(p, g, rng)
			check := randomCheckNodes(g, rng)
			label := fmt.Sprintf("trial %d %s on %v", trial, p.Name(), g)
			for _, budget := range []int{1, 3, 10, 50} {
				compareSolvers(t, label, p, g, partial, check, budget)
				instances++
			}
			if unset(p, partial) > maxFree {
				continue
			}
			compareSolvers(t, label, p, g, partial, check, 0)
			instances++
			if _, ok := solveBudgetReference(p, g, partial, check, 0); !ok {
				continue
			}
			// Success is monotone in the budget, so bisect for the
			// smallest one that suffices.
			lo, hi := 1, 1
			for {
				if _, ok := solveBudgetReference(p, g, partial, check, hi); ok {
					break
				}
				lo, hi = hi+1, 2*hi
			}
			for lo < hi {
				mid := (lo + hi) / 2
				if _, ok := solveBudgetReference(p, g, partial, check, mid); ok {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			compareSolvers(t, label, p, g, partial, check, hi)
			compareSolvers(t, label, p, g, partial, check, hi-1)
			instances += 2
			boundaries++
		}
		if t.Failed() {
			return
		}
	}
	t.Logf("%d instances agree, %d of them at exact step boundaries", instances, 2*boundaries)
}

// unset counts the labels of the layers p uses that partial leaves unset.
func unset(p Problem, partial *Solution) int {
	k := 0
	if p.NodeAlphabet() != nil {
		k += countUnset(partial.Node)
	}
	if p.EdgeAlphabet() != nil {
		k += countUnset(partial.Edge)
	}
	return k
}

func countUnset(labels []int) int {
	k := 0
	for _, l := range labels {
		if l == Unset {
			k++
		}
	}
	return k
}

func compareSolvers(t *testing.T, label string, p Problem, g *graph.Graph, partial *Solution, check []int, budget int) {
	t.Helper()
	before := partial.Clone()
	want, wantOK := solveBudgetReference(p, g, partial, check, budget)
	got, gotOK := SolveBudget(p, g, partial, check, budget)
	if gotOK != wantOK {
		t.Errorf("%s, budget %d: ok = %v, reference %v", label, budget, gotOK, wantOK)
		return
	}
	if gotOK && (!slices.Equal(got.Node, want.Node) || !slices.Equal(got.Edge, want.Edge)) {
		t.Errorf("%s, budget %d: solution %v/%v, reference %v/%v", label, budget, got.Node, got.Edge, want.Node, want.Edge)
	}
	if !slices.Equal(partial.Node, before.Node) || !slices.Equal(partial.Edge, before.Edge) {
		t.Errorf("%s, budget %d: SolveBudget modified its partial solution", label, budget)
	}
}

// randomPartial fixes each label the problem uses with probability 1/4 to
// a random alphabet entry.
func randomPartial(p Problem, g *graph.Graph, rng *rand.Rand) *Solution {
	sol := NewSolution(g)
	if alpha := p.NodeAlphabet(); alpha != nil {
		for v := range sol.Node {
			if rng.Intn(4) == 0 {
				sol.Node[v] = alpha[rng.Intn(len(alpha))]
			}
		}
	}
	if alpha := p.EdgeAlphabet(); alpha != nil {
		for e := range sol.Edge {
			if rng.Intn(4) == 0 {
				sol.Edge[e] = alpha[rng.Intn(len(alpha))]
			}
		}
	}
	return sol
}

// randomCheckNodes returns every node, or a random subset in random order.
func randomCheckNodes(g *graph.Graph, rng *rand.Rand) []int {
	if rng.Intn(3) == 0 {
		return allNodes(g)
	}
	var out []int
	for _, v := range rng.Perm(g.N()) {
		if rng.Intn(2) == 0 {
			out = append(out, v)
		}
	}
	return out
}
