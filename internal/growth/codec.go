package growth

import (
	"fmt"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// Encode produces the uniform one-bit-per-node advice of Theorem 4.1.
func (s Schema) Encode(g *graph.Graph) (local.Advice, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sol, err := s.solve(g)
	if err != nil {
		return nil, err
	}
	c, err := buildClustering(g, s.ClusterRadius)
	if err != nil {
		return nil, err
	}
	bit := make([]int, g.N())
	for _, m := range c.markers {
		bit[m[0]], bit[m[1]] = 1, 1
	}
	rbar := s.Problem.Radius()
	for mi := range c.markers {
		strip := stripNodes(g, c, mi, rbar)
		domain := domainNodes(g, c, mi, strip)
		inDomain := map[int]bool{}
		for _, v := range domain {
			inDomain[v] = true
		}
		payload, err := s.stripBits(g, sol, strip, inDomain)
		if err != nil {
			return nil, err
		}
		carriers := s.dataCarriers(g, c, mi)
		if payload.Len() > len(carriers) {
			return nil, fmt.Errorf(
				"growth: cluster %d needs %d data bits but its interior holds only %d carriers — the family's growth is too fast for ClusterRadius=%d (Theorem 4.1's capacity precondition)",
				mi, payload.Len(), len(carriers), s.ClusterRadius)
		}
		for i := 0; i < payload.Len(); i++ {
			bit[carriers[i]] = payload.Bit(i)
		}
	}
	advice := make(local.Advice, g.N())
	for v, b := range bit {
		advice[v] = bitstr.New(b)
	}
	// Prover self-check.
	decoded, _, err := s.Decode(g, advice)
	if err != nil {
		return nil, fmt.Errorf("growth: self-check decode: %w", err)
	}
	if err := lcl.Verify(s.Problem, g, decoded); err != nil {
		return nil, fmt.Errorf("growth: self-check verify: %w", err)
	}
	return advice, nil
}

func (s Schema) solve(g *graph.Graph) (*lcl.Solution, error) {
	if s.Solver != nil {
		return s.Solver(g)
	}
	sol, ok := lcl.Solve(s.Problem, g, lcl.NewSolution(g))
	if !ok {
		return nil, fmt.Errorf("growth: problem %s unsolvable on the graph", s.Problem.Name())
	}
	return sol, nil
}

// nodeOutput is one node's decoded labels.
type nodeOutput struct {
	nodeLabel  int
	edgeLabels map[int64]int // neighbor ID -> label
}

// Decode runs the LOCAL decoder.
func (s Schema) Decode(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
	if err := s.validate(); err != nil {
		return nil, local.Stats{}, err
	}
	if len(advice) != g.N() {
		return nil, local.Stats{}, fmt.Errorf("growth: advice length %d for %d nodes", len(advice), g.N())
	}
	for v, a := range advice {
		if a.Len() != 1 {
			return nil, local.Stats{}, fmt.Errorf("growth: node %d holds %d bits, want 1", v, a.Len())
		}
	}
	outputs, stats, err := local.RunBall(g, advice, s.DecodeRadius(), func(view *local.View) any {
		return s.decodeNode(view)
	}, local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	sol := lcl.NewSolution(g)
	useNodes := s.Problem.NodeAlphabet() != nil
	useEdges := s.Problem.EdgeAlphabet() != nil
	for v, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, fmt.Errorf("growth: node %d: %w", v, err)
		}
		no := out.(nodeOutput)
		if useNodes {
			sol.Node[v] = no.nodeLabel
		}
		if useEdges {
			for nid, label := range no.edgeLabels {
				w := g.NodeByID(nid)
				if w == -1 {
					return nil, stats, fmt.Errorf("growth: node %d labels edge to unknown ID %d", v, nid)
				}
				e := g.EdgeIndex(v, w)
				if sol.Edge[e] != lcl.Unset && sol.Edge[e] != label {
					return nil, stats, fmt.Errorf("growth: endpoints of edge %d disagree", e)
				}
				sol.Edge[e] = label
			}
		}
	}
	return sol, stats, nil
}

// decodeNode reconstructs the center's cluster, reads its strip labels, and
// completes the cluster by deterministic brute force.
func (s Schema) decodeNode(view *local.View) any {
	vg := view.G
	center := view.Center
	rbar := s.Problem.Radius()

	// Identify marker pairs and data bits among visible 1-nodes: a marker
	// bit has a 1-neighbor, a data bit does not. Only nodes with complete
	// adjacency (depth <= radius-1) are classified.
	bitOne := func(i int) bool { return view.Advice[i].Bit(0) == 1 }
	isMarkerBit := func(i int) bool {
		if !bitOne(i) {
			return false
		}
		for _, w := range vg.Neighbors(i) {
			if bitOne(w) {
				return true
			}
		}
		return false
	}

	// Markers: components of marker bits, which are exactly adjacent pairs.
	// Components reaching depth radius-1 may be truncated by the view edge
	// and are ignored (they belong to clusters too far to matter); fully
	// visible components (all members at depth <= radius-2) must be pairs.
	var markers [][2]int
	seen := map[int]bool{}
	for i := 0; i < vg.N(); i++ {
		if seen[i] || view.Dist[i] > view.Radius-1 || !isMarkerBit(i) {
			continue
		}
		var comp []int
		truncated := false
		queue := []int{i}
		seen[i] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			if view.Dist[u] > view.Radius-2 {
				truncated = true
			}
			for _, w := range vg.Neighbors(u) {
				if !seen[w] && view.Dist[w] <= view.Radius-1 && isMarkerBit(w) {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if truncated {
			continue
		}
		if len(comp) != 2 {
			return fmt.Errorf("marker component of size %d", len(comp))
		}
		markers = append(markers, [2]int{comp[0], comp[1]})
	}

	if len(markers) == 0 {
		return s.decodeSolo(view)
	}

	// Build the view-local clustering: Voronoi over visible markers.
	c := &clustering{
		markers: markers,
		cluster: make([]int, vg.N()),
		solo:    make([]bool, vg.N()),
	}
	for v := range c.cluster {
		c.cluster[v] = -1
	}
	assignVoronoi(vg, c)

	my := c.cluster[center]
	if my == -1 {
		return s.decodeSolo(view)
	}

	strip := stripNodes(vg, c, my, rbar)
	domain := domainNodes(vg, c, my, strip)
	inDomain := map[int]bool{}
	for _, v := range domain {
		inDomain[v] = true
	}
	carriers := s.dataCarriers(vg, c, my)

	// Read the strip labels off the carriers.
	nodeW := widthOf(s.Problem.NodeAlphabet())
	edgeW := widthOf(s.Problem.EdgeAlphabet())
	pos := 0
	read := func(width int) (int, error) {
		if pos+width > len(carriers) {
			return 0, fmt.Errorf("ran out of data carriers at bit %d", pos)
		}
		v := 0
		for i := 0; i < width; i++ {
			v = v<<1 | boolToInt(bitOne(carriers[pos]))
			pos++
		}
		return v, nil
	}
	sub, orig := vg.InducedSubgraph(domain)
	subIndex := make(map[int]int, len(orig))
	for si, v := range orig {
		subIndex[v] = si
	}
	partial := lcl.NewSolution(sub)
	for _, v := range strip {
		if nodeW > 0 {
			idx, err := read(nodeW)
			if err != nil {
				return err
			}
			if idx >= len(s.Problem.NodeAlphabet()) {
				return fmt.Errorf("node label index %d out of alphabet", idx)
			}
			partial.Node[subIndex[v]] = s.Problem.NodeAlphabet()[idx]
		}
		if edgeW > 0 {
			for _, e := range vg.IncidentEdgesByID(v) {
				w := vg.Other(e, v)
				if !inDomain[w] {
					continue
				}
				idx, err := read(edgeW)
				if err != nil {
					return err
				}
				if idx >= len(s.Problem.EdgeAlphabet()) {
					return fmt.Errorf("edge label index %d out of alphabet", idx)
				}
				se := sub.EdgeIndex(subIndex[v], subIndex[w])
				label := s.Problem.EdgeAlphabet()[idx]
				if partial.Edge[se] != lcl.Unset && partial.Edge[se] != label {
					return fmt.Errorf("strip encodes edge %d inconsistently", se)
				}
				partial.Edge[se] = label
			}
		}
	}
	// Complete the cluster: constraints checked at my cluster's members.
	var checkNodes []int
	for _, v := range domain {
		if c.cluster[v] == my {
			checkNodes = append(checkNodes, subIndex[v])
		}
	}
	completed, ok := lcl.SolveBudget(s.Problem, sub, partial, checkNodes, completionBudget)
	if !ok {
		return fmt.Errorf("cluster completion unsolvable (or over budget)")
	}
	return s.extractOutput(sub, completed, subIndex[center])
}

// completionBudget caps the per-cluster brute-force search: honest
// instances complete in roughly alphabet-size * cluster-size steps, while
// corrupted advice can fix unsatisfiable boundary labels whose exhaustive
// refutation would take exponential time. Exhaustion counts as a decoding
// failure (and a rejection in the proof verifier).
const completionBudget = 500000

// decodeSolo handles a node whose whole (marker-free) component is visible.
func (s Schema) decodeSolo(view *local.View) any {
	vg := view.G
	comp := vg.Ball(view.Center, view.Radius)
	// The component must be fully visible: no member at the view boundary.
	for _, v := range comp {
		if view.Dist[v] >= view.Radius-1 {
			return fmt.Errorf("component extends beyond the view with no marker in sight")
		}
	}
	sub, orig := vg.InducedSubgraph(comp)
	subIndex := make(map[int]int, len(orig))
	for si, v := range orig {
		subIndex[v] = si
	}
	all := make([]int, sub.N())
	for i := range all {
		all[i] = i
	}
	completed, ok := lcl.SolveBudget(s.Problem, sub, lcl.NewSolution(sub), all, completionBudget)
	if !ok {
		return fmt.Errorf("solo component unsolvable (or over budget)")
	}
	return s.extractOutput(sub, completed, subIndex[view.Center])
}

// extractOutput pulls one node's labels from a completed solution.
func (s Schema) extractOutput(sub *graph.Graph, sol *lcl.Solution, v int) nodeOutput {
	out := nodeOutput{edgeLabels: map[int64]int{}}
	if s.Problem.NodeAlphabet() != nil {
		out.nodeLabel = sol.Node[v]
	}
	if s.Problem.EdgeAlphabet() != nil {
		for i, e := range sub.IncidentEdges(v) {
			out.edgeLabels[sub.ID(sub.Neighbors(v)[i])] = sol.Edge[e]
		}
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
