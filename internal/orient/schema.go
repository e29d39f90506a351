package orient

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// Params tunes the balanced-orientation advice schema of Lemma 5.1 / its
// all-degrees extension (Corollary 5.3).
type Params struct {
	// MarkSpacing is the target gap (in trail steps) between consecutive
	// marked pairs on a long trail; larger spacing means sparser advice but
	// a larger decoding radius. This is the schema's α-style knob.
	MarkSpacing int
	// MarkWindow is how much slack past the target position the decoder's
	// walk budget reserves for marks the encoder had to slide to keep pairs
	// unambiguous.
	MarkWindow int
}

// DefaultParams returns parameters that work on all laptop-scale graphs
// used in the experiments.
func DefaultParams() Params {
	return Params{MarkSpacing: 12, MarkWindow: 12}
}

// walkBudget is how many trail steps the decoder explores in each direction:
// far enough to cross a full spacing-plus-window gap.
func (p Params) walkBudget() int { return p.MarkSpacing + p.MarkWindow + 1 }

// shortBound is the trail length up to which no advice is used (the r of
// the paper: short cycles are oriented by the ID rule).
func (p Params) shortBound() int { return p.walkBudget() }

// DecodeRadius is the LOCAL radius of the decoder.
func (p Params) DecodeRadius() int { return p.walkBudget() + 2 }

func (p Params) validate() error {
	if p.MarkSpacing < 1 || p.MarkWindow < 1 {
		return fmt.Errorf("orient: spacing/window must be positive, got %+v", p)
	}
	return nil
}

// Schema is the balanced-orientation advice schema as a composable
// variable-length schema stage, following the marked-pair construction of
// Section 5 (2+1 bits on a pair of adjacent trail nodes). We use a
// symmetric refinement of the paper's layout: both nodes of a marked pair
// hold two bits [1, out], where out = 1 iff the pair's trail edge is
// oriented away from that node. Exactly one node of each pair has out = 1,
// which gives the decoder a built-in consistency check, and the fixed
// two-bit shape keeps downstream encodings (e.g. the decompression codec)
// self-delimiting.
type Schema struct {
	P Params
}

var _ core.VarSchema = Schema{}

// Name implements core.VarSchema.
func (Schema) Name() string { return "balanced-orientation" }

// Problem implements core.VarSchema.
func (Schema) Problem() lcl.Problem { return lcl.BalancedOrientation{} }

// EncodeVar implements core.VarSchema.
func (s Schema) EncodeVar(g *graph.Graph, _ []*lcl.Solution) (core.VarAdvice, error) {
	if err := s.P.validate(); err != nil {
		return nil, err
	}
	dec := Decompose(g)
	va := make(core.VarAdvice)
	// A placement is unambiguous iff every G-adjacent pair of marked nodes
	// is a genuine marked pair, so a candidate pair (a, b) is feasible when
	// neither node is marked and no other neighbor of either is marked.
	marked := make([]bool, g.N())
	feasible := func(a, b int) bool {
		if a == b || marked[a] || marked[b] {
			return false
		}
		for _, u := range g.Neighbors(a) {
			if u != b && marked[u] {
				return false
			}
		}
		for _, u := range g.Neighbors(b) {
			if u != a && marked[u] {
				return false
			}
		}
		return true
	}

	// Process trails longest-first so that constrained placements happen
	// while the graph is still uncluttered; order must be deterministic.
	order := make([]int, len(dec.Trails))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := &dec.Trails[order[a]], &dec.Trails[order[b]]
		if ta.Len() != tb.Len() {
			return ta.Len() > tb.Len()
		}
		return g.ID(ta.Nodes[0]) < g.ID(tb.Nodes[0])
	})

	for _, id := range order {
		t := &dec.Trails[id]
		if t.Len() <= s.P.shortBound() {
			continue // oriented by the ID rule, no advice
		}
		forward := CanonicalDirection(g, t)
		dirBit := 0
		if forward {
			dirBit = 1
		}
		pos := 0
		var pairs []int
		for pos < t.Len() {
			// Take the first feasible position at or after pos; the
			// coverage check below is the authority on whether the
			// resulting gaps stay within the decoder's walk budget.
			placed := false
			for p := pos; p+1 <= t.Len(); p++ {
				a, b := t.Nodes[p], t.Nodes[p+1]
				if !feasible(a, b) {
					continue
				}
				va[a] = bitstr.New(1, dirBit)
				va[b] = bitstr.New(1, 1-dirBit)
				marked[a], marked[b] = true, true
				pairs = append(pairs, p)
				placed = true
				pos = p + s.P.MarkSpacing
				break
			}
			if !placed {
				break
			}
		}
		if err := s.checkCoverage(t, pairs); err != nil {
			return nil, fmt.Errorf("orient: trail %d: %w", id, err)
		}
	}
	return va, nil
}

// checkCoverage verifies that every trail position is within the decoder's
// walk budget of a marked pair (or, for open trails, sees both trail ends).
func (s Schema) checkCoverage(t *Trail, pairs []int) error {
	w := s.P.walkBudget()
	L := t.Len()
	for q := 0; q < L; q++ {
		ok := false
		for _, p := range pairs {
			d := p - q
			if d < 0 {
				d = -d
			}
			if t.Closed && L-d < d {
				d = L - d
			}
			if d <= w-2 {
				ok = true
				break
			}
		}
		if !ok && !t.Closed && q <= w-2 && L-q <= w-2 {
			ok = true // both ends visible: ID rule applies
		}
		if !ok {
			return fmt.Errorf("no marked pair within %d steps of trail position %d; increase MarkWindow or decrease MarkSpacing", w-2, q)
		}
	}
	return nil
}

// edgeDir is a node's local claim about one incident edge.
type edgeDir struct {
	neighborID int64
	out        bool
}

// DecodeVar implements core.VarSchema: every node orients its incident
// edges from its radius-DecodeRadius view on the ball engine, and the
// per-node claims are assembled (and cross-checked) into an orientation.
func (s Schema) DecodeVar(g *graph.Graph, va core.VarAdvice, _ []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	return s.DecodeVarOn("ball", g, va, local.RunConfig{})
}

// DecodeVarOn is DecodeVar running on a named engine (local.EngineNames):
// the same per-node decide, dispatched through local.RunDecider, so the
// engine-equivalence and seed-independence walls can pin the decoded
// orientation bit-identical across all four engines and worker counts.
func (s Schema) DecodeVarOn(engine string, g *graph.Graph, va core.VarAdvice, cfg local.RunConfig) (*lcl.Solution, local.Stats, error) {
	if err := s.P.validate(); err != nil {
		return nil, local.Stats{}, err
	}
	advice := va.Dense(g.N())
	outputs, stats, err := local.RunDecider(engine, g, advice, s.P.DecodeRadius(), s.viewDecide, cfg)
	if err != nil {
		return nil, stats, err
	}
	return s.assemble(g, outputs, stats)
}

// viewDecide adapts decodeNode to the engines' decide signature: errors
// become the node's output value, inspected during assembly.
func (s Schema) viewDecide(view *local.View) any {
	dirs, err := s.decodeNode(view)
	if err != nil {
		return err
	}
	return dirs
}

// assemble cross-checks the per-node edge claims into an orientation.
func (s Schema) assemble(g *graph.Graph, outputs []any, stats local.Stats) (*lcl.Solution, local.Stats, error) {
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, fmt.Errorf("orient: node %d: %w", v, err)
		}
		for _, d := range out.([]edgeDir) {
			w := g.NodeByID(d.neighborID)
			if w == -1 {
				return nil, stats, fmt.Errorf("orient: node %d claims edge to unknown ID %d", v, d.neighborID)
			}
			e := g.EdgeIndex(v, w)
			dir := lcl.TowardU
			if (g.Edge(e).U == v) == d.out {
				dir = lcl.TowardV
			}
			if sol.Edge[e] != lcl.Unset && sol.Edge[e] != dir {
				return nil, stats, fmt.Errorf("orient: endpoints of edge %d disagree", e)
			}
			sol.Edge[e] = dir
		}
	}
	return sol, stats, nil
}

// decodeNode orients every edge incident to the view's center. Each
// incident edge's trail is walked once: the walk through edge e is e's
// forward segment and the backward segment of e's partner at the center.
func (s Schema) decodeNode(view *local.View) ([]edgeDir, error) {
	c := view.Center
	sc := walkPool.Get().(*walkScratch)
	defer walkPool.Put(sc)
	inc := view.IncidentEdges(c)
	sc.walks = slices.Grow(sc.walks[:0], len(inc))[:len(inc)]
	for i := range sc.walks {
		sc.walks[i].done = false
	}
	dirs := make([]edgeDir, 0, len(inc))
	for i, e := range inc {
		out, err := s.decodeEdge(view, inc, i, sc)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, edgeDir{neighborID: view.ID(view.Other(e, c)), out: out})
	}
	return dirs, nil
}

// walkScratch holds the trail walks of one node decode, one per incident
// edge of the center, and the merged segment of the edge being decided. A
// worker decoding view after view reuses one from walkPool, so the walks
// stop allocating once it has held its longest segments. Nothing a decode
// returns refers to it, and it is not safe for concurrent use.
type walkScratch struct {
	walks        []trailWalk
	nodes, edges []int
}

// trailWalk is the walk from the center through one of its edges, taken
// at most once per decode.
type trailWalk struct {
	nodes, edges  []int
	wrapped, done bool
}

var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// walkThrough returns the walk of at most maxSteps edges from the center
// through its i-th incident edge e, walking it on first use.
func (sc *walkScratch) walkThrough(view *local.View, i, e, maxSteps int) *trailWalk {
	tw := &sc.walks[i]
	if !tw.done {
		tw.nodes, tw.edges, tw.wrapped = walk(view, view.Center, e, maxSteps, tw.nodes, tw.edges)
		tw.done = true
	}
	return tw
}

// decodeEdge decides whether the center's i-th incident edge (inc[i])
// points away from the center, from the walks through it and its partner.
func (s Schema) decodeEdge(view *local.View, inc []int, i int, sc *walkScratch) (bool, error) {
	c := view.Center
	w := s.P.walkBudget()
	e := inc[i]

	f := sc.walkThrough(view, i, e, w)
	fNodes, fEdges, wrapped := f.nodes, f.edges, f.wrapped
	var bNodes, bEdges []int
	backEdge := viewPartnerAt(view, c, e)
	atStart := backEdge == -1
	if !wrapped && !atStart {
		b := sc.walkThrough(view, slices.Index(inc, backEdge), backEdge, w)
		bNodes, bEdges = b.nodes, b.edges
	}

	// Combined trail segment: positions run backward-walk-reversed, then
	// center, then forward walk. Edge e sits between the center and the
	// next forward node.
	nodes := sc.nodes[:0]
	edges := sc.edges[:0]
	for i := len(bNodes) - 1; i >= 1; i-- {
		nodes = append(nodes, bNodes[i])
	}
	for i := len(bEdges) - 1; i >= 0; i-- {
		edges = append(edges, bEdges[i])
	}
	centerPos := len(nodes)
	nodes = append(nodes, fNodes...)
	edges = append(edges, fEdges...)
	sc.nodes, sc.edges = nodes, edges
	ePos := centerPos // edges[centerPos] == e

	backAtEnd := !wrapped && (atStart || partnerEnds(view, bNodes, bEdges))
	forwardAtEnd := !wrapped && partnerEnds(view, fNodes, fEdges)

	if wrapped || backAtEnd && forwardAtEnd {
		// The whole trail is visible: apply the ID rule.
		t := Trail{Nodes: nodes, Edges: edges, Closed: wrapped}
		if wrapped {
			// The forward walk alone wraps; use it directly so the node
			// sequence has the closed form Nodes[0] == Nodes[last].
			t = Trail{Nodes: fNodes, Edges: fEdges, Closed: true}
			ePos = 0
		}
		forward := viewCanonicalDirection(view, &t)
		return forward == (t.Nodes[ePos] == c), nil
	}

	// Long trail: find a marked pair among consecutive segment nodes.
	for i := 0; i+1 < len(nodes); i++ {
		a, b := nodes[i], nodes[i+1]
		if view.Advice[a].Len() != 2 || view.Advice[b].Len() != 2 ||
			view.Advice[a].Bit(0) != 1 || view.Advice[b].Bit(0) != 1 {
			continue
		}
		outA, outB := view.Advice[a].Bit(1), view.Advice[b].Bit(1)
		if outA == outB {
			return false, fmt.Errorf("orient: marked pair with inconsistent out bits")
		}
		// The pair's trail edge is oriented away from the node whose out
		// bit is 1; a precedes b in segment order, so the trail flows
		// segment-forward iff outA == 1.
		pairSegmentForward := outA == 1
		// Edge e is traversed segment-forward from nodes[ePos] to
		// nodes[ePos+1]; it points out of the center iff the trail is
		// oriented segment-forward and the center is nodes[ePos], or the
		// trail is oriented segment-backward and the center is nodes[ePos+1].
		return pairSegmentForward == (nodes[ePos] == c), nil
	}
	return false, fmt.Errorf("orient: no marked pair within %d trail steps of the center (trail longer than short bound)", w)
}

// The decoder's trail helpers below repeat the encoder's partnerAt, the
// trail-following loop of traceTrail and CanonicalDirection step for step
// on the concrete *local.View rather than sharing one interface with the
// encoder's *graph.Graph versions: the per-step calls are the decoder's hot
// path, where interface dispatch measured slower (DESIGN.md decision 1).

// viewPartnerAt is partnerAt on a view: the edge paired with e at node v,
// or -1 when e is v's unpaired leftover edge. A node below the view radius
// sees all its edges, so its pairing agrees with the host graph's.
func viewPartnerAt(view *local.View, v, e int) int {
	incs := view.IncidentEdges(v)
	// With at most two visible edges no ID needs reading: a lone edge is
	// the leftover, and of two edges each is the other's partner.
	switch len(incs) {
	case 1:
		return -1
	case 2:
		if incs[0] == e {
			return incs[1]
		}
		return incs[0]
	}
	id := view.ID(view.Other(e, v))
	rank, below, above := 0, -1, -1
	var belowID, aboveID int64
	nbrs := view.Neighbors(v)
	for i, f := range incs {
		fid := view.ID(nbrs[i])
		switch {
		case f == e:
		case fid < id:
			rank++
			if below == -1 || fid > belowID {
				below, belowID = f, fid
			}
		case above == -1 || fid < aboveID:
			above, aboveID = f, fid
		}
	}
	if rank%2 == 1 {
		return below
	}
	return above
}

// walk follows the trail containing firstEdge in view, starting at
// startNode and traversing firstEdge first, for at most maxSteps edges. It
// writes the visited nodes (beginning with startNode) and the edges between
// them into the given buffers (from their start, growing them as needed)
// and returns them, and true if the walk returned to its starting directed
// edge (the trail is closed and fully traversed).
func walk(view *local.View, startNode, firstEdge, maxSteps int, nodes, edges []int) ([]int, []int, bool) {
	nodes = append(nodes[:0], startNode)
	edges = edges[:0]
	cur, curEdge := startNode, firstEdge
	for step := 0; step < maxSteps; step++ {
		next := view.Other(curEdge, cur)
		nodes = append(nodes, next)
		edges = append(edges, curEdge)
		p := viewPartnerAt(view, next, curEdge)
		if p == -1 {
			return nodes, edges, false
		}
		if p == firstEdge && next == startNode {
			return nodes, edges, true
		}
		cur, curEdge = next, p
	}
	return nodes, edges, false
}

// viewCanonicalDirection is CanonicalDirection on a view.
func viewCanonicalDirection(view *local.View, t *Trail) bool {
	bestPos := -1
	var bestHi, bestLo int64
	for i, e := range t.Edges {
		ed := view.Edge(e)
		hi, lo := view.ID(ed.U), view.ID(ed.V)
		if hi < lo {
			hi, lo = lo, hi
		}
		if bestPos == -1 || hi > bestHi || hi == bestHi && lo > bestLo {
			bestPos, bestHi, bestLo = i, hi, lo
		}
	}
	return view.ID(t.Nodes[bestPos]) > view.ID(t.Nodes[bestPos+1])
}

// partnerEnds reports whether the last node of a walk is a trail end (its
// arriving edge has no partner there).
func partnerEnds(view *local.View, nodes, edges []int) bool {
	if len(edges) == 0 {
		return false
	}
	last := nodes[len(nodes)-1]
	return viewPartnerAt(view, last, edges[len(edges)-1]) == -1
}
