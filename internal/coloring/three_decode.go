package coloring

import (
	"fmt"
	"sort"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// Decode runs the LOCAL 3-coloring decoder on one-bit-per-node advice on
// the ball engine.
func (t ThreeColoring) Decode(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
	return t.DecodeOn("ball", g, advice, local.RunConfig{})
}

// DecodeOn is Decode running on a named engine (local.EngineNames) via
// local.RunDecider — the dispatch the engine-equivalence and
// seed-independence walls sweep.
func (t ThreeColoring) DecodeOn(engine string, g *graph.Graph, advice local.Advice, cfg local.RunConfig) (*lcl.Solution, local.Stats, error) {
	if err := t.validate(); err != nil {
		return nil, local.Stats{}, err
	}
	if len(advice) != g.N() {
		return nil, local.Stats{}, fmt.Errorf("coloring: advice length %d for %d nodes", len(advice), g.N())
	}
	for v, s := range advice {
		if s.Len() != 1 {
			return nil, local.Stats{}, fmt.Errorf("coloring: node %d holds %d bits, want 1", v, s.Len())
		}
	}
	outputs, stats, err := local.RunDecider(engine, g, advice, t.DecodeRadius(), t.decodeNode, cfg)
	if err != nil {
		return nil, stats, err
	}
	return t.assembleColors(stats, g, outputs)
}

// assembleColors collects per-node color outputs into a solution.
func (t ThreeColoring) assembleColors(stats local.Stats, g *graph.Graph, outputs []any) (*lcl.Solution, local.Stats, error) {
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, fmt.Errorf("coloring: node %d: %w", v, err)
		}
		sol.Node[v] = out.(int)
	}
	return sol, stats, nil
}

// decodeNode computes the center's color from its radius-R view.
func (t ThreeColoring) decodeNode(view *local.View) any {
	r := t.DecodeRadius()

	bitOne := func(i int) bool { return view.Advice[i].Bit(0) == 1 }
	// type23(i): a 1-bit with >= 2 one-bit neighbors. Only meaningful for
	// nodes whose adjacency is complete in the view (depth <= r-1).
	type23 := func(i int) bool {
		if !bitOne(i) {
			return false
		}
		ones := 0
		for _, w := range view.Neighbors(i) {
			if bitOne(w) {
				ones++
			}
		}
		return ones >= 2
	}
	// isColor1(i): a type-1 bit.
	isColor1 := func(i int) bool { return bitOne(i) && !type23(i) }

	c := view.Center
	if isColor1(c) {
		return 1
	}

	// Explore the center's component of G[{2,3}] out to depth r-2.
	limit := r - 2
	compDist := map[int]int{c: 0}
	queue := []int{c}
	sawLimit := false
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if compDist[u] == limit {
			sawLimit = true
			continue
		}
		for _, w := range view.Neighbors(u) {
			if _, seen := compDist[w]; seen || isColor1(w) {
				continue
			}
			compDist[w] = compDist[u] + 1
			queue = append(queue, w)
		}
	}

	// Collect marked (type-23) nodes of the component.
	var markedNodes []int
	for i, d := range compDist {
		_ = d
		if type23(i) {
			markedNodes = append(markedNodes, i)
		}
	}

	if !sawLimit && len(markedNodes) == 0 {
		// Small component, fully visible, no groups: canonical 2-coloring.
		return t.canonicalColor(view, compDist, c)
	}
	if len(markedNodes) == 0 {
		return fmt.Errorf("large component with no visible mark group within %d hops", limit)
	}

	// Cluster marked nodes into groups by component distance <= 2*spread.
	group := t.nearestGroup(view, compDist, markedNodes)
	// Connected components among the group's nodes (g-adjacency).
	comps := adjacencyComponents(view, group)
	var phiS int
	switch comps {
	case 1:
		phiS = 2
	case 2:
		phiS = 3
	default:
		return fmt.Errorf("mark group with %d connected components", comps)
	}
	s := group[0]
	for _, v := range group[1:] {
		if view.ID(v) < view.ID(s) {
			s = v
		}
	}
	// Transfer by bipartition parity within the component.
	if compDist[s]%2 == 0 {
		return phiS
	}
	return 5 - phiS // the other of {2, 3}
}

// canonicalColor 2-colors a fully visible component: the side of the
// smallest-ID node gets color 2.
func (t ThreeColoring) canonicalColor(view *local.View, compDist map[int]int, c int) any {
	small := -1
	for i := range compDist {
		if small == -1 || view.ID(i) < view.ID(small) {
			small = i
		}
	}
	// Parity of the component distance between c and small: BFS within the
	// component map.
	d, err := compDistance(view, compDist, small, c)
	if err != nil {
		return err
	}
	if d%2 == 0 {
		return 2
	}
	return 3
}

// compDistance computes the distance between two nodes within the explored
// component.
func compDistance(view *local.View, compDist map[int]int, from, to int) (int, error) {
	dist := map[int]int{from: 0}
	queue := []int{from}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == to {
			return dist[u], nil
		}
		for _, w := range view.Neighbors(u) {
			if _, in := compDist[w]; !in {
				continue
			}
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return 0, fmt.Errorf("nodes not connected within the explored component")
}

// nearestGroup clusters the marked nodes by component distance (threshold
// 2*GroupSpread) and returns the cluster containing the marked node nearest
// to the center.
func (t ThreeColoring) nearestGroup(view *local.View, compDist map[int]int, markedNodes []int) []int {
	sort.Slice(markedNodes, func(a, b int) bool {
		da, db := compDist[markedNodes[a]], compDist[markedNodes[b]]
		if da != db {
			return da < db
		}
		return view.ID(markedNodes[a]) < view.ID(markedNodes[b])
	})
	seed := markedNodes[0]
	group := []int{seed}
	inGroup := map[int]bool{seed: true}
	// Grow the cluster: any marked node within 2*GroupSpread (component
	// distance) of a group member joins.
	changed := true
	for changed {
		changed = false
		for _, m := range markedNodes {
			if inGroup[m] {
				continue
			}
			for _, gmem := range group {
				d, err := compDistance(view, compDist, gmem, m)
				if err == nil && d <= 2*t.GroupSpread {
					group = append(group, m)
					inGroup[m] = true
					changed = true
					break
				}
			}
		}
	}
	return group
}

// adjacencyComponents counts connected components of the subgraph induced
// by nodes (using the view's adjacency).
func adjacencyComponents(view *local.View, nodes []int) int {
	in := map[int]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	seen := map[int]bool{}
	comps := 0
	for _, v := range nodes {
		if seen[v] {
			continue
		}
		comps++
		queue := []int{v}
		seen[v] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range view.Neighbors(u) {
				if in[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return comps
}
