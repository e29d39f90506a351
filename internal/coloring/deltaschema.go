package coloring

import (
	"fmt"
	"math/bits"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// ReduceStage is the middle, advice-free stage of the Section 6 pipeline:
// it takes the cluster coloring (f(Δ) colors) from the oracle and reduces it
// to Δ+1 colors with Linial's reduction followed by color-class scheduling.
// Rounds are a function of Δ only.
type ReduceStage struct {
	// Delta is the maximum degree of the target family.
	Delta int
	// SkipLinial disables the Linial reduction (pure class scheduling), the
	// ablation knob for experiment E5.
	SkipLinial bool
}

var _ core.VarSchema = ReduceStage{}

// Name implements core.VarSchema.
func (r ReduceStage) Name() string { return "reduce-to-delta-plus-1" }

// Problem implements core.VarSchema.
func (r ReduceStage) Problem() lcl.Problem { return lcl.Coloring{K: r.Delta + 1} }

// EncodeVar implements core.VarSchema.
func (ReduceStage) EncodeVar(*graph.Graph, []*lcl.Solution) (core.VarAdvice, error) {
	return core.VarAdvice{}, nil
}

// DecodeVar implements core.VarSchema.
func (r ReduceStage) DecodeVar(g *graph.Graph, _ core.VarAdvice, oracles []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	if len(oracles) == 0 {
		return nil, local.Stats{}, fmt.Errorf("coloring: reduce stage needs a coloring oracle")
	}
	colors := oracles[len(oracles)-1].Node
	rounds := 0
	if !r.SkipLinial {
		reduced, linialRounds, err := LinialReduceToQuadratic(g, colors)
		if err != nil {
			return nil, local.Stats{}, err
		}
		colors = reduced
		rounds += linialRounds
	}
	final, schedRounds, err := ReduceToDeltaPlus1(g, colors)
	if err != nil {
		return nil, local.Stats{}, err
	}
	rounds += schedRounds
	sol, err := lcl.ColoringSolution(g, final)
	if err != nil {
		return nil, local.Stats{}, err
	}
	return sol, local.Stats{Rounds: rounds}, nil
}

// ShiftStage is the final stage of the Section 6 pipeline (Lemma 6.6,
// following Panconesi–Srinivasan): given a proper (Δ+1)-coloring, recolor to
// Δ colors. The prover uncolors the color-(Δ+1) class and finds, for each
// uncolored node, a shift path to a node that can absorb a recoloring (the
// set X of Lemma 6.7); paths are pairwise non-adjacent so all shifts apply
// in parallel. The advice stores, at each path node, one role bit plus the
// port of its path successor; terminals store a single 0 bit.
type ShiftStage struct {
	// Delta is the target color count (= maximum degree of the family).
	Delta int
	// MaxPathLen caps the prover's search; 0 means no cap.
	MaxPathLen int
}

var _ core.VarSchema = ShiftStage{}

// Name implements core.VarSchema.
func (s ShiftStage) Name() string { return "delta-shift" }

// Problem implements core.VarSchema.
func (s ShiftStage) Problem() lcl.Problem { return lcl.Coloring{K: s.Delta} }

// portWidth is the number of bits used for a successor port.
func (s ShiftStage) portWidth() int {
	w := bits.Len(uint(s.Delta - 1))
	if w == 0 {
		w = 1
	}
	return w
}

// sortedNeighbors returns v's neighbors ordered by ID — the port order
// shared by encoder and decoder.
func sortedNeighbors(g *graph.Graph, v int) []int {
	nbrs := append([]int(nil), g.Neighbors(v)...)
	g.SortByID(nbrs)
	return nbrs
}

// EncodeVar implements core.VarSchema.
func (s ShiftStage) EncodeVar(g *graph.Graph, oracles []*lcl.Solution) (core.VarAdvice, error) {
	if len(oracles) == 0 {
		return nil, fmt.Errorf("coloring: shift stage needs a (Δ+1)-coloring oracle")
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

	va := make(core.VarAdvice)
	blocked := make([]bool, g.N()) // on or adjacent to an accepted path
	// protectedBy[u] counts how many uncolored nodes have u in their closed
	// neighborhood; a first, strict path search avoids the closed
	// neighborhoods of all other uncolored nodes so that later nodes do not
	// find themselves blocked.
	protectedBy := make([]int, g.N())
	for _, u := range uncolored {
		protectedBy[u]++
		for _, w := range g.Neighbors(u) {
			protectedBy[w]++
		}
	}
	newColors := append([]int(nil), orig...)
	for _, v := range uncolored {
		// Release v's own protection before searching.
		protectedBy[v]--
		for _, w := range g.Neighbors(v) {
			protectedBy[w]--
		}
		strict := make([]bool, g.N())
		for u := range strict {
			strict[u] = blocked[u] || protectedBy[u] > 0
		}
		path, termColor, err := s.findShiftPath(g, orig, newColors, strict, v)
		if err != nil {
			// Strict search failed; retry avoiding only accepted paths.
			path, termColor, err = s.findShiftPath(g, orig, newColors, blocked, v)
		}
		if err != nil {
			return nil, err
		}
		// Record advice and apply the shift.
		for i := 0; i+1 < len(path); i++ {
			port := portOf(g, path[i], path[i+1])
			va[path[i]] = bitstr.New(1).Concat(bitstr.FromUint(uint64(port), s.portWidth()))
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
	if err := CheckProper(g, newColors); err != nil {
		return nil, fmt.Errorf("coloring: shifted coloring invalid: %w", err)
	}
	if MaxColor(newColors) > delta {
		return nil, fmt.Errorf("coloring: shifted coloring still uses %d colors", MaxColor(newColors))
	}
	return va, nil
}

// portOf returns the index of w in v's ID-sorted neighbor order.
func portOf(g *graph.Graph, v, w int) int {
	for i, u := range sortedNeighbors(g, v) {
		if u == w {
			return i
		}
	}
	panic(fmt.Sprintf("coloring: %d is not a neighbor of %d", w, v))
}

// findShiftPath finds a path v = p0, ..., pk with all nodes unblocked, such
// that shifting colors toward v (p_i takes orig[p_{i+1}]) and recoloring pk
// with the smallest free color yields a locally proper result. Candidates
// are explored in BFS (nearest-first) order.
func (s ShiftStage) findShiftPath(g *graph.Graph, orig, cur []int, blocked []bool, v int) ([]int, int, error) {
	if blocked[v] {
		return nil, 0, fmt.Errorf("coloring: uncolored node %d is blocked by an earlier path", v)
	}
	// BFS over unblocked nodes, smallest-ID parents.
	parent := make([]int, g.N())
	dist := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int{v}
	var orderTail []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		orderTail = append(orderTail, u)
		if s.MaxPathLen > 0 && dist[u] >= s.MaxPathLen {
			continue
		}
		for _, w := range sortedNeighbors(g, u) {
			if dist[w] == -1 && !blocked[w] {
				dist[w] = dist[u] + 1
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	for _, x := range orderTail {
		if x == v {
			continue
		}
		// Reconstruct the BFS path v..x.
		var rev []int
		for u := x; u != -1; u = parent[u] {
			rev = append(rev, u)
		}
		path := make([]int, len(rev))
		for i := range rev {
			path[i] = rev[len(rev)-1-i]
		}
		if termColor, ok := s.validShift(g, orig, cur, path); ok {
			return path, termColor, nil
		}
	}
	return nil, 0, fmt.Errorf("coloring: no valid shift path from node %d", v)
}

// validShift simulates the shift along path on top of cur and checks local
// properness; it returns the terminal's color on success.
func (s ShiftStage) validShift(g *graph.Graph, orig, cur []int, path []int) (int, bool) {
	trial := make(map[int]int, len(path))
	for i := 0; i+1 < len(path); i++ {
		trial[path[i]] = orig[path[i+1]]
	}
	colorAt := func(u int) int {
		if c, ok := trial[u]; ok {
			return c
		}
		return cur[u]
	}
	// Terminal: smallest free color in 1..Delta given post-shift neighbors.
	term := path[len(path)-1]
	used := map[int]bool{}
	for _, u := range g.Neighbors(term) {
		used[colorAt(u)] = true
	}
	termColor := 0
	for c := 1; c <= s.Delta; c++ {
		if !used[c] {
			termColor = c
			break
		}
	}
	if termColor == 0 {
		return 0, false
	}
	trial[term] = termColor
	// Local properness of every path node.
	for _, p := range path {
		cp := trial[p]
		if cp < 1 || cp > s.Delta {
			return 0, false
		}
		for _, u := range g.Neighbors(p) {
			if colorAt(u) == cp {
				return 0, false
			}
		}
	}
	return termColor, true
}

// DecodeVar implements core.VarSchema: a 2-round LOCAL algorithm. Path
// nodes take their successor's oracle color; terminals pick the smallest
// color unused by their neighbors' post-shift colors; everyone else keeps
// the oracle color.
func (s ShiftStage) DecodeVar(g *graph.Graph, va core.VarAdvice, oracles []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	if len(oracles) == 0 {
		return nil, local.Stats{}, fmt.Errorf("coloring: shift stage needs a (Δ+1)-coloring oracle")
	}
	orig := oracles[len(oracles)-1].Node
	advice := va.Dense(g.N())

	// newColorOf computes a node's post-shift color from radius-1 data; it
	// is shared by path nodes (radius 1) and terminals (radius 2 via their
	// neighbors).
	newColorOf := func(u int) (int, error) {
		if advice[u].Len() == 0 {
			return orig[u], nil
		}
		if advice[u].Bit(0) == 0 {
			return 0, nil // terminal: decided separately
		}
		if advice[u].Len() != 1+s.portWidth() {
			return 0, fmt.Errorf("coloring: node %d has malformed shift advice %v", u, advice[u])
		}
		port := int(advice[u].Slice(1, advice[u].Len()).Uint())
		nbrs := sortedNeighbors(g, u)
		if port >= len(nbrs) {
			return 0, fmt.Errorf("coloring: node %d successor port %d out of range", u, port)
		}
		return orig[nbrs[port]], nil
	}

	sol := lcl.NewSolution(g)
	for v := 0; v < g.N(); v++ {
		c, err := newColorOf(v)
		if err != nil {
			return nil, local.Stats{}, err
		}
		if c != 0 {
			sol.Node[v] = c
			continue
		}
		// Terminal.
		used := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			cu, err := newColorOf(u)
			if err != nil {
				return nil, local.Stats{}, err
			}
			if cu == 0 {
				return nil, local.Stats{}, fmt.Errorf("coloring: adjacent terminals %d and %d", v, u)
			}
			used[cu] = true
		}
		picked := 0
		for c := 1; c <= s.Delta; c++ {
			if !used[c] {
				picked = c
				break
			}
		}
		if picked == 0 {
			return nil, local.Stats{}, fmt.Errorf("coloring: terminal %d found no free color", v)
		}
		sol.Node[v] = picked
	}
	return sol, local.Stats{Rounds: 2}, nil
}

// NewDeltaPipeline assembles the full Section 6 schema (Theorem 6.1): an
// f(Δ)-color cluster coloring with advice, reduction to Δ+1 colors, and the
// advice-guided shift to Δ colors.
func NewDeltaPipeline(delta, coverRadius int) *core.Pipeline {
	return &core.Pipeline{
		PipelineName: fmt.Sprintf("%d-coloring", delta),
		Stages: []core.VarSchema{
			ClusterColoringStage{CoverRadius: coverRadius},
			ReduceStage{Delta: delta},
			ShiftStage{Delta: delta},
		},
	}
}
