// Package decomp implements seeded low-diameter graph decomposition: the
// (β, O(log n/β)) partition of Miller–Peng–Xu exponential shifts, computed
// as one multi-source BFS with shifted start times over the cached CSR
// snapshot.
//
// Every node v draws an integer shift δ_v from a discretized exponential
// distribution with rate β (seeded, deterministic) and conceptually starts a
// BFS wave at time maxShift − δ_v; a node joins the ball of the first wave
// to reach it. Equivalently, v joins the center u minimizing dist(u,v) − δ_u
// — the MPX construction, which cuts each edge with probability O(β) and
// bounds every ball's radius by its center's shift (≤ O(log n / β) with
// high probability).
//
// The decomposition is deterministic in (graph, β, seed): claims land in
// frontier-scan order and the first discoverer wins. That makes it safe to
// use both as a measurable workload (experiment E11) and as the ball
// schedule of the decomposition-guided LLL solver (lll.SolveDecomposed, via
// EventGraph).
package decomp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"localadvice/internal/graph"
)

// ErrBeta tags decompositions requested with a non-positive or non-finite
// rate β. β must satisfy 0 < β < ∞: the expected shift is 1/β, so β = 0
// would never terminate the shift draw and a negative or NaN rate has no
// distributional meaning.
var ErrBeta = errors.New("decomp: beta must be positive and finite")

// Decomposition is the result of Decompose: a partition of the nodes into
// balls of radius bounded by their center's shift.
type Decomposition struct {
	Beta float64 // the rate the shifts were drawn with
	Seed int64   // the RNG seed

	Ball    []int32 // node -> ball index (always assigned, exactly one ball)
	Shift   []int32 // node -> its drawn integer shift δ_v
	Depth   []int32 // node -> hop distance from its ball's center
	Centers []int32 // ball -> center node; Ball[Centers[b]] == b, Depth == 0
	Radius  []int32 // ball -> max member depth; Radius[b] <= Shift[Centers[b]]

	MaxShift int32 // max over Shift (the BFS start-time horizon)
	CutEdges int   // edges whose endpoints lie in different balls
	Edges    int   // total edges m of the decomposed graph
}

// Balls returns the number of balls.
func (d *Decomposition) Balls() int { return len(d.Centers) }

// CutFraction returns CutEdges/Edges, or 0 on an edgeless graph. Always in
// [0, 1].
func (d *Decomposition) CutFraction() float64 {
	if d.Edges == 0 {
		return 0
	}
	return float64(d.CutEdges) / float64(d.Edges)
}

// MaxRadius returns the largest ball radius (0 on an empty graph).
func (d *Decomposition) MaxRadius() int {
	r := 0
	for _, x := range d.Radius {
		if int(x) > r {
			r = int(x)
		}
	}
	return r
}

// MeanRadius returns the mean ball radius (0 when there are no balls).
func (d *Decomposition) MeanRadius() float64 {
	if len(d.Radius) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.Radius {
		sum += float64(x)
	}
	return sum / float64(len(d.Radius))
}

// claim is one frontier node's candidate ownership of an unvisited neighbor.
type claim struct {
	node  int32
	ball  int32
	depth int32
}

// Decompose computes the (β, ·) decomposition of g with the given seed.
func Decompose(g *graph.Graph, beta float64, seed int64) (*Decomposition, error) {
	if math.IsNaN(beta) || math.IsInf(beta, 0) || beta <= 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBeta, beta)
	}
	n := g.N()

	d := &Decomposition{
		Beta:  beta,
		Seed:  seed,
		Ball:  make([]int32, n),
		Shift: make([]int32, n),
		Depth: make([]int32, n),
		Edges: g.M(),
	}
	if n == 0 {
		return d, nil
	}

	// Integer exponential shifts via the inverse CDF, floor-discretized
	// (a geometric distribution with success probability 1-e^-β). Shifts
	// are capped at n: a shift beyond n cannot change the assignment (every
	// wave has reached every node by then) but would stretch the start-time
	// horizon arbitrarily for tiny β.
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		u := rng.Float64() // in [0, 1), so 1-u is in (0, 1]
		// Clamp in float64 before converting: for tiny β the draw can
		// overflow int32, and a float64→int32 conversion out of range is
		// implementation-defined in Go.
		x := -math.Log(1-u) / beta
		if x > float64(n) {
			x = float64(n)
		}
		shift := int32(x)
		d.Shift[v] = shift
		if shift > d.MaxShift {
			d.MaxShift = shift
		}
	}

	// starters[t] lists the nodes whose wave starts at time t = maxShift −
	// δ_v, in node-index order (the deterministic injection order: when two
	// unclaimed nodes start at the same time, the smaller index becomes a
	// center first).
	starters := make([][]int32, d.MaxShift+1)
	for v := 0; v < n; v++ {
		t := d.MaxShift - d.Shift[v]
		starters[t] = append(starters[t], int32(v))
	}

	csr := g.Snapshot()
	s := graph.NewBFSScratch()
	s.Begin(n)

	// Claims generated at step t land at t+1. Total claims over the whole
	// run are bounded by 2m (each node's frontier membership lasts exactly
	// one step), so the buffer amortizes.
	var pending []claim

	frontHead := 0
	for t := int32(0); len(s.Order()) < n; t++ {
		if t > d.MaxShift+int32(n) {
			// Unreachable: every node self-starts by maxShift and waves
			// advance one hop per step.
			return nil, fmt.Errorf("decomp: traversal did not terminate (visited %d of %d)", len(s.Order()), n)
		}
		// Claims generated at t-1 land now, in frontier-scan order; first
		// claim per node wins.
		for _, c := range pending {
			if !s.Visited(int(c.node)) {
				d.Ball[c.node] = c.ball
				s.Visit(int(c.node), int(c.depth))
			}
		}
		// Then unclaimed starters of this step become new centers. The
		// order (claims before injections) is the tie rule: at equal
		// arrival time an incoming wave beats self-starting.
		if t <= d.MaxShift {
			for _, v := range starters[t] {
				if !s.Visited(int(v)) {
					d.Ball[v] = int32(len(d.Centers))
					d.Centers = append(d.Centers, v)
					s.Visit(int(v), 0)
				}
			}
		}
		// One claim per (frontier node, unvisited neighbor) pair, in
		// frontier order then port order.
		frontier := s.Order()[frontHead:]
		frontHead = len(s.Order())
		pending = pending[:0]
		for _, u := range frontier {
			du := int32(s.Dist(int(u)))
			b := d.Ball[u]
			for _, w := range csr.Neighbors(int(u)) {
				if !s.Visited(int(w)) {
					pending = append(pending, claim{node: w, ball: b, depth: du + 1})
				}
			}
		}
	}

	// Depths, radii, cut edges.
	d.Radius = make([]int32, len(d.Centers))
	for v := 0; v < n; v++ {
		depth := int32(s.Dist(v))
		d.Depth[v] = depth
		if b := d.Ball[v]; depth > d.Radius[b] {
			d.Radius[b] = depth
		}
	}
	for e := 0; e < d.Edges; e++ {
		ed := g.Edge(e)
		if d.Ball[ed.U] != d.Ball[ed.V] {
			d.CutEdges++
		}
	}
	return d, nil
}

// Validate checks the structural invariants of d against g and returns the
// first violation: every node in exactly one ball; each ball's center is its
// own member at depth 0; every non-center node has a same-ball neighbor one
// hop closer to the center (so Depth is a true BFS distance); every depth is
// bounded by the center's shift (the MPX radius guarantee); Radius is the
// exact per-ball depth maximum; and CutEdges matches a recount. The property
// suite and FuzzDecompose both assert a nil result.
func (d *Decomposition) Validate(g *graph.Graph) error {
	n := g.N()
	if len(d.Ball) != n || len(d.Shift) != n || len(d.Depth) != n {
		return fmt.Errorf("decomp: per-node slices sized %d/%d/%d for a %d-node graph",
			len(d.Ball), len(d.Shift), len(d.Depth), n)
	}
	if len(d.Radius) != len(d.Centers) {
		return fmt.Errorf("decomp: %d radii for %d balls", len(d.Radius), len(d.Centers))
	}
	if n == 0 {
		if len(d.Centers) != 0 {
			return fmt.Errorf("decomp: %d balls on an empty graph", len(d.Centers))
		}
		return nil
	}
	if len(d.Centers) == 0 {
		return errors.New("decomp: no balls on a non-empty graph")
	}
	for b, c := range d.Centers {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("decomp: ball %d center %d out of range", b, c)
		}
		if d.Ball[c] != int32(b) {
			return fmt.Errorf("decomp: ball %d center %d assigned to ball %d", b, c, d.Ball[c])
		}
		if d.Depth[c] != 0 {
			return fmt.Errorf("decomp: ball %d center %d at depth %d", b, c, d.Depth[c])
		}
	}
	csr := g.Snapshot()
	maxDepth := make([]int32, len(d.Centers))
	for v := 0; v < n; v++ {
		b := d.Ball[v]
		if b < 0 || int(b) >= len(d.Centers) {
			return fmt.Errorf("decomp: node %d in out-of-range ball %d", v, b)
		}
		depth := d.Depth[v]
		if depth < 0 {
			return fmt.Errorf("decomp: node %d unassigned (depth %d)", v, depth)
		}
		if c := d.Centers[b]; depth > d.Shift[c] {
			return fmt.Errorf("decomp: node %d at depth %d exceeds its center %d's shift %d",
				v, depth, c, d.Shift[c])
		}
		if depth > maxDepth[b] {
			maxDepth[b] = depth
		}
		if depth > 0 {
			ok := false
			for _, w := range csr.Neighbors(v) {
				if d.Ball[w] == b && d.Depth[w] == depth-1 {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("decomp: node %d at depth %d has no same-ball neighbor at depth %d",
					v, depth, depth-1)
			}
		} else if d.Centers[b] != int32(v) {
			return fmt.Errorf("decomp: node %d at depth 0 is not ball %d's center", v, b)
		}
	}
	for b := range d.Radius {
		if d.Radius[b] != maxDepth[b] {
			return fmt.Errorf("decomp: ball %d radius %d, member depths reach %d", b, d.Radius[b], maxDepth[b])
		}
	}
	cut := 0
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		if d.Ball[ed.U] != d.Ball[ed.V] {
			cut++
		}
	}
	if cut != d.CutEdges || d.Edges != g.M() {
		return fmt.Errorf("decomp: recorded %d/%d cut edges, recounted %d/%d", d.CutEdges, d.Edges, cut, g.M())
	}
	if f := d.CutFraction(); f < 0 || f > 1 {
		return fmt.Errorf("decomp: cut fraction %v outside [0,1]", f)
	}
	return nil
}
