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
	bit, err := s.adviceBits(g, sol)
	if err != nil {
		return nil, err
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

// adviceBits places every node's advice bit: 1 on each marker pair, each
// cluster's strip payload on its data carriers, 0 elsewhere.
func (s Schema) adviceBits(g *graph.Graph, sol *lcl.Solution) ([]int, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	c := buildClustering(g, s.ClusterRadius, sc)
	bit := make([]int, g.N())
	for _, m := range c.markers {
		bit[m[0]], bit[m[1]] = 1, 1
	}
	rbar := s.Problem.Radius()
	for mi := range c.markers {
		strip := stripNodes(g, c, mi, rbar, sc)
		domainNodes(g, c, mi, strip, sc)
		payload, err := s.stripBits(g, sol, strip, sc.pos)
		if err != nil {
			return nil, err
		}
		carriers := s.dataCarriers(g, c, mi, sc)
		if payload.Len() > len(carriers) {
			return nil, fmt.Errorf(
				"growth: cluster %d needs %d data bits but its interior holds only %d carriers — the family's growth is too fast for ClusterRadius=%d (Theorem 4.1's capacity precondition)",
				mi, payload.Len(), len(carriers), s.ClusterRadius)
		}
		for i := 0; i < payload.Len(); i++ {
			bit[carriers[i]] = payload.Bit(i)
		}
	}
	return bit, nil
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
	edgeLabels []edgeLabel // one per incident edge of the completion subgraph
}

// edgeLabel is a node's decoded label for its edge to the neighbor with
// the given ID.
type edgeLabel struct {
	neighbor int64
	label    int
}

// decoder is the per-node decoder of one Decode or VerifyProof run. It
// reads the problem's alphabets once, since NodeAlphabet and EdgeAlphabet
// may allocate on every call.
type decoder struct {
	Schema
	nodeAlpha, edgeAlpha []int
	nodeW, edgeW         int
}

func (s Schema) decoder() *decoder {
	d := &decoder{Schema: s, nodeAlpha: s.Problem.NodeAlphabet(), edgeAlpha: s.Problem.EdgeAlphabet()}
	d.nodeW, d.edgeW = widthOf(d.nodeAlpha), widthOf(d.edgeAlpha)
	return d
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
	d := s.decoder()
	outputs, stats, err := local.RunBall(g, advice, s.DecodeRadius(), d.decodeNode, local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, fmt.Errorf("growth: node %d: %w", v, err)
		}
		no := out.(nodeOutput)
		if d.nodeAlpha != nil {
			sol.Node[v] = no.nodeLabel
		}
		for _, el := range no.edgeLabels {
			w := g.NodeByID(el.neighbor)
			if w == -1 {
				return nil, stats, fmt.Errorf("growth: node %d labels edge to unknown ID %d", v, el.neighbor)
			}
			e := g.EdgeIndex(v, w)
			if sol.Edge[e] != lcl.Unset && sol.Edge[e] != el.label {
				return nil, stats, fmt.Errorf("growth: endpoints of edge %d disagree", e)
			}
			sol.Edge[e] = el.label
		}
	}
	return sol, stats, nil
}

// decodeNode reconstructs the center's cluster, reads its strip labels, and
// completes the cluster by deterministic brute force. The clustering and
// the completion read the whole ball, so it materializes the view first.
// Its working state is a pooled scratch; the nodeOutput it returns is
// freshly allocated.
func (d *decoder) decodeNode(lazy *local.View) any {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	view := lazy.Materialize()
	vg := view.G
	n := vg.N()

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
	// Each component is one BFS appended to the scratch's visit order.
	seen := &sc.bfs
	seen.Begin(n)
	markers := sc.markers[:0]
	for i := 0; i < n; i++ {
		if seen.Visited(i) || view.Dist[i] > view.Radius-1 || !isMarkerBit(i) {
			continue
		}
		first := len(seen.Order())
		seen.Visit(i, 0)
		truncated := false
		for head := first; head < len(seen.Order()); head++ {
			u := int(seen.Order()[head])
			if view.Dist[u] > view.Radius-2 {
				truncated = true
			}
			for _, w := range vg.Neighbors(u) {
				if !seen.Visited(w) && view.Dist[w] <= view.Radius-1 && isMarkerBit(w) {
					seen.Visit(w, 0)
				}
			}
		}
		if truncated {
			continue
		}
		comp := seen.Order()[first:]
		if len(comp) != 2 {
			return fmt.Errorf("marker component of size %d", len(comp))
		}
		markers = append(markers, [2]int{int(comp[0]), int(comp[1])})
	}
	sc.markers = markers

	if len(markers) == 0 {
		return d.decodeSolo(view, sc)
	}

	// Build the view-local clustering: Voronoi over visible markers.
	c := &clustering{markers: markers, cluster: resized(sc.cluster, n)}
	sc.cluster = c.cluster
	for v := range c.cluster {
		c.cluster[v] = -1
	}
	assignVoronoi(vg, c, sc)

	my := c.cluster[view.Center]
	if my == -1 {
		return d.decodeSolo(view, sc)
	}

	strip := stripNodes(vg, c, my, d.Problem.Radius(), sc)
	domain := domainNodes(vg, c, my, strip, sc)
	carriers := d.dataCarriers(vg, c, my, sc)

	// Read the strip labels off the carriers.
	next := 0
	read := func(width int) (int, error) {
		if next+width > len(carriers) {
			return 0, fmt.Errorf("ran out of data carriers at bit %d", next)
		}
		v := 0
		for i := 0; i < width; i++ {
			v = v<<1 | boolToInt(bitOne(carriers[next]))
			next++
		}
		return v, nil
	}
	sub := sc.induce(vg, domain)
	partial := sc.unsetPartial(sub)
	for _, v := range strip {
		if d.nodeW > 0 {
			idx, err := read(d.nodeW)
			if err != nil {
				return err
			}
			if idx >= len(d.nodeAlpha) {
				return fmt.Errorf("node label index %d out of alphabet", idx)
			}
			partial.Node[sc.pos[v]] = d.nodeAlpha[idx]
		}
		if d.edgeW > 0 {
			for _, e := range vg.IncidentEdgesByID(v) {
				w := vg.Other(e, v)
				if sc.pos[w] < 0 {
					continue
				}
				idx, err := read(d.edgeW)
				if err != nil {
					return err
				}
				if idx >= len(d.edgeAlpha) {
					return fmt.Errorf("edge label index %d out of alphabet", idx)
				}
				se := sub.EdgeIndex(sc.pos[v], sc.pos[w])
				label := d.edgeAlpha[idx]
				if partial.Edge[se] != lcl.Unset && partial.Edge[se] != label {
					return fmt.Errorf("strip encodes edge %d inconsistently", se)
				}
				partial.Edge[se] = label
			}
		}
	}
	// Complete the cluster: constraints checked at my cluster's members.
	check := sc.check[:0]
	for i, v := range domain {
		if c.cluster[v] == my {
			check = append(check, i)
		}
	}
	sc.check = check
	completed, ok := lcl.SolveBudget(d.Problem, sub, partial, check, completionBudget)
	if !ok {
		return fmt.Errorf("cluster completion unsolvable (or over budget)")
	}
	return d.extractOutput(sub, completed, sc.pos[view.Center])
}

// unsetPartial resets the scratch's partial solution to an all-unset one
// sized for sub.
func (sc *scratch) unsetPartial(sub *graph.Graph) *lcl.Solution {
	p := &sc.partial
	p.Node = resized(p.Node, sub.N())
	p.Edge = resized(p.Edge, sub.M())
	for i := range p.Node {
		p.Node[i] = lcl.Unset
	}
	for i := range p.Edge {
		p.Edge[i] = lcl.Unset
	}
	return p
}

// completionBudget caps the per-cluster brute-force search: honest
// instances complete in roughly alphabet-size * cluster-size steps, while
// corrupted advice can fix unsatisfiable boundary labels whose exhaustive
// refutation would take exponential time. Exhaustion counts as a decoding
// failure (and a rejection in the proof verifier).
const completionBudget = 500000

// decodeSolo handles a node whose whole (marker-free) component is visible.
func (d *decoder) decodeSolo(view *local.Ball, sc *scratch) any {
	vg := view.G
	sc.sources = append(sc.sources[:0], view.Center)
	comp := sc.domain[:0]
	for _, v := range sc.within(vg, sc.sources, view.Radius) {
		// The component must be fully visible: no member at the view
		// boundary.
		if view.Dist[v] >= view.Radius-1 {
			return fmt.Errorf("component extends beyond the view with no marker in sight")
		}
		comp = append(comp, int(v))
	}
	sc.domain = comp
	sc.indexNodes(vg.N(), comp)
	sub := sc.induce(vg, comp)
	all := sc.check[:0]
	for i := range comp {
		all = append(all, i)
	}
	sc.check = all
	completed, ok := lcl.SolveBudget(d.Problem, sub, sc.unsetPartial(sub), all, completionBudget)
	if !ok {
		return fmt.Errorf("solo component unsolvable (or over budget)")
	}
	return d.extractOutput(sub, completed, sc.pos[view.Center])
}

// extractOutput pulls one node's labels from a completed solution.
func (d *decoder) extractOutput(sub *graph.Graph, sol *lcl.Solution, v int) nodeOutput {
	var out nodeOutput
	if d.nodeAlpha != nil {
		out.nodeLabel = sol.Node[v]
	}
	if d.edgeAlpha != nil {
		out.edgeLabels = make([]edgeLabel, sub.Degree(v))
		for i, e := range sub.IncidentEdges(v) {
			out.edgeLabels[i] = edgeLabel{neighbor: sub.ID(sub.Neighbors(v)[i]), label: sol.Edge[e]}
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
