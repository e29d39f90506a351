package lcl

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"localadvice/internal/graph"
)

// Solve completes a partial solution for p on g by exhaustive backtracking,
// or reports that no completion exists. Labels already set in partial are
// kept. This is the centralized brute force used (a) inside clusters by the
// Section 4 schema, where cluster sizes are bounded, and (b) by tests as a
// ground-truth oracle. Its running time is exponential in the number of
// unset labels; callers are responsible for keeping instances small.
func Solve(p Problem, g *graph.Graph, partial *Solution) (*Solution, bool) {
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	return SolveConstrained(p, g, partial, all)
}

// SolveConstrained is Solve with the final verification (and the pruning
// during search) restricted to the constraints centered at checkNodes. The
// Section 4 decoder uses it to complete a cluster whose boundary strip is
// fixed: constraints of strip nodes whose balls leave the visible region
// are the responsibility of neighboring clusters.
//
// The search is deterministic as a function of the graph's identifiers and
// the partial solution: variables are processed in increasing ID order
// (edges by their sorted endpoint-ID pair) and alphabets in declaration
// order, so every LOCAL view that runs it on the same cluster reaches the
// same completion.
func SolveConstrained(p Problem, g *graph.Graph, partial *Solution, checkNodes []int) (*Solution, bool) {
	return SolveBudget(p, g, partial, checkNodes, 0)
}

// SolveBudget is SolveConstrained with a cap on the number of backtracking
// steps (label assignments); maxSteps <= 0 means unbounded. Exhausting the
// budget reports "no solution found", which callers like the Section 4
// decoder treat as a rejection — honest instances complete in a number of
// steps linear-ish in the cluster size, while adversarially corrupted
// advice can embed unsatisfiable subinstances whose exhaustive refutation
// would be exponential.
//
// The search state lives in a pooled solver, so a call allocates only the
// returned solution, the problem's alphabets (read once per call) and
// whatever CheckNode allocates: one small error per rejected label for the
// built-in problems.
func SolveBudget(p Problem, g *graph.Graph, partial *Solution, checkNodes []int, maxSteps int) (*Solution, bool) {
	// Fast refutation of conflicts already present among the fixed labels:
	// without this, a fixed-fixed violation would only surface at the final
	// verification, after the whole search space was enumerated.
	for _, v := range checkNodes {
		if p.CheckNode(g, v, partial) != nil {
			return nil, false
		}
	}
	s := solverPool.Get().(*solver)
	defer s.release()
	s.p, s.g, s.sol, s.checkNodes = p, g, partial.Clone(), checkNodes
	s.nodeAlpha, s.edgeAlpha = p.NodeAlphabet(), p.EdgeAlphabet()
	s.steps, s.maxSteps = 0, maxSteps
	s.orderVars()
	s.collectAffected()
	if !s.search(0) {
		return nil, false
	}
	return s.sol, true
}

// variable is one unset label: a node's or an edge's.
type variable struct {
	isEdge bool
	index  int
}

// solver is SolveBudget's search state. Its slices are reused through
// solverPool, so repeated completions (one per decoded node) stop
// allocating search state once a solver has held its largest instance.
type solver struct {
	p                    Problem
	g                    *graph.Graph
	sol                  *Solution
	checkNodes           []int
	nodeAlpha, edgeAlpha []int
	steps, maxSteps      int

	vars    []variable
	order   []int
	isCheck []bool
	bfs     graph.BFSScratch
	// affected[start[i]:start[i+1]] are the check nodes within distance
	// Radius of vars[i], ascending: the constraints a label of vars[i]
	// can break.
	affected []int
	start    []int
}

var solverPool = sync.Pool{New: func() any { return new(solver) }}

// release drops the solver's references to the caller's data and returns
// it to the pool.
func (s *solver) release() {
	s.p, s.g, s.sol, s.checkNodes, s.nodeAlpha, s.edgeAlpha = nil, nil, nil, nil, nil, nil
	solverPool.Put(s)
}

// orderVars lists the unset labels in search order: nodes by ID, then
// edges by their sorted endpoint-ID pair.
func (s *solver) orderVars() {
	g := s.g
	s.vars = s.vars[:0]
	if s.nodeAlpha != nil {
		s.order = s.order[:0]
		for v := 0; v < g.N(); v++ {
			s.order = append(s.order, v)
		}
		slices.SortFunc(s.order, func(a, b int) int { return cmp.Compare(g.ID(a), g.ID(b)) })
		for _, v := range s.order {
			if s.sol.Node[v] == Unset {
				s.vars = append(s.vars, variable{isEdge: false, index: v})
			}
		}
	}
	if s.edgeAlpha != nil {
		s.order = s.order[:0]
		for e := 0; e < g.M(); e++ {
			s.order = append(s.order, e)
		}
		slices.SortFunc(s.order, func(a, b int) int {
			loA, hiA := sortedIDs(g, g.Edge(a))
			loB, hiB := sortedIDs(g, g.Edge(b))
			if c := cmp.Compare(loA, loB); c != 0 {
				return c
			}
			return cmp.Compare(hiA, hiB)
		})
		for _, e := range s.order {
			if s.sol.Edge[e] == Unset {
				s.vars = append(s.vars, variable{isEdge: true, index: e})
			}
		}
	}
}

// collectAffected fills affected and start: for every variable, the check
// nodes within distance Radius of the node or of either endpoint of the
// edge.
func (s *solver) collectAffected() {
	g, n, r := s.g, s.g.N(), s.p.Radius()
	s.isCheck = slices.Grow(s.isCheck[:0], n)[:n]
	clear(s.isCheck)
	for _, v := range s.checkNodes {
		s.isCheck[v] = true
	}
	s.affected = s.affected[:0]
	s.start = append(s.start[:0], 0)
	for _, va := range s.vars {
		s.bfs.Begin(n)
		if va.isEdge {
			e := g.Edge(va.index)
			s.bfs.Visit(e.U, 0)
			s.bfs.Visit(e.V, 0)
		} else {
			s.bfs.Visit(va.index, 0)
		}
		// Bounded BFS over the adjacency lists; a CSR snapshot would cost
		// an allocation per graph, and the graphs here are small and often
		// built for a single call.
		for head := 0; head < len(s.bfs.Order()); head++ {
			u := int(s.bfs.Order()[head])
			d := s.bfs.Dist(u)
			if d >= r {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if !s.bfs.Visited(w) {
					s.bfs.Visit(w, d+1)
				}
			}
		}
		from := len(s.affected)
		for _, u := range s.bfs.Order() {
			if s.isCheck[u] {
				s.affected = append(s.affected, int(u))
			}
		}
		slices.Sort(s.affected[from:])
		s.start = append(s.start, len(s.affected))
	}
}

// search assigns vars[i:] by backtracking in alphabet order and reports
// whether it reached a solution that satisfies every check node within the
// step budget. Every label assignment counts one step.
func (s *solver) search(i int) bool {
	if i == len(s.vars) {
		for _, v := range s.checkNodes {
			if s.p.CheckNode(s.g, v, s.sol) != nil {
				return false
			}
		}
		return true
	}
	va := s.vars[i]
	domain, slot := s.nodeAlpha, &s.sol.Node
	if va.isEdge {
		domain, slot = s.edgeAlpha, &s.sol.Edge
	}
	for _, label := range domain {
		s.steps++
		if s.maxSteps > 0 && s.steps > s.maxSteps {
			return false
		}
		(*slot)[va.index] = label
		if s.consistent(i) && s.search(i+1) {
			return true
		}
	}
	(*slot)[va.index] = Unset
	return false
}

// consistent reports whether every check node a label of vars[i] can
// affect still accepts.
func (s *solver) consistent(i int) bool {
	for _, v := range s.affected[s.start[i]:s.start[i+1]] {
		if s.p.CheckNode(s.g, v, s.sol) != nil {
			return false
		}
	}
	return true
}

func sortedIDs(g *graph.Graph, e graph.Edge) (lo, hi int64) {
	lo, hi = g.ID(e.U), g.ID(e.V)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// Solvable reports whether p has any solution on g extending partial.
func Solvable(p Problem, g *graph.Graph, partial *Solution) bool {
	_, ok := Solve(p, g, partial)
	return ok
}

// GreedyColoring returns a proper coloring of g with at most Δ+1 colors
// (labels 1..Δ+1), assigning nodes in increasing ID order the smallest color
// not used by an already-colored neighbor. This is the "greedy coloring"
// every schema in the paper takes as the canonical offline solution.
func GreedyColoring(g *graph.Graph) []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	// Sort by ID so the result depends only on IDs, not on indices.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && g.ID(order[j]) < g.ID(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	colors := make([]int, g.N())
	for _, v := range order {
		used := make(map[int]bool, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			if colors[w] != 0 {
				used[colors[w]] = true
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// ColoringSolution wraps a per-node color slice into a Solution.
func ColoringSolution(g *graph.Graph, colors []int) (*Solution, error) {
	if len(colors) != g.N() {
		return nil, fmt.Errorf("lcl: %d colors for %d nodes", len(colors), g.N())
	}
	sol := NewSolution(g)
	copy(sol.Node, colors)
	return sol, nil
}

// OrientationSolution wraps a per-edge direction slice (TowardV/TowardU)
// into a Solution.
func OrientationSolution(g *graph.Graph, dirs []int) (*Solution, error) {
	if len(dirs) != g.M() {
		return nil, fmt.Errorf("lcl: %d directions for %d edges", len(dirs), g.M())
	}
	sol := NewSolution(g)
	copy(sol.Edge, dirs)
	return sol, nil
}
