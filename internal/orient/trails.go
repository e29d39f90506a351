// Package orient implements Section 5 of the paper: balanced and
// almost-balanced orientations with advice, the splitting problem, and the
// trail decomposition both are built on.
//
// The construction mirrors the paper's virtual graph G′: every node pairs up
// its incident edges two by two (in the fixed, ID-determined order), which
// decomposes the edge set into trails — closed trails (the cycles of G′) and
// open trails ending at odd-degree nodes. Orienting every trail consistently
// yields an orientation with |indeg − outdeg| ≤ 1 at every node, and = 0 at
// even-degree nodes.
//
// Short trails are oriented by a deterministic ID rule with no advice; long
// trails carry marked pairs of adjacent nodes whose advice bits encode the
// trail direction, exactly as in Lemma 5.1 and its extension to all degrees.
package orient

import (
	"fmt"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
)

// partnerAt returns the edge paired with e at node v, or -1 when e is the
// unpaired leftover edge of an odd-degree node. In v's incident edges
// ordered by neighbor ID (graph.IncidentEdgesByID, the paper's "arbitrary
// fixed order" made canonical so that every node and every view computes
// the same pairing), the edges of ranks 2i and 2i+1 are partners. One
// allocation-free pass finds e's rank and the edges just below and just
// above it in that order: an odd rank pairs e with the one below, an even
// rank with the one above.
func partnerAt(g *graph.Graph, v, e int) int {
	id := g.ID(g.Other(e, v))
	rank, below, above := 0, -1, -1
	var belowID, aboveID int64
	nbrs := g.Neighbors(v)
	for i, f := range g.IncidentEdges(v) {
		fid := g.ID(nbrs[i])
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

// Trail is one trail of the decomposition: Nodes[i] and Nodes[i+1] are the
// endpoints of Edges[i]. For a closed trail, Nodes[0] == Nodes[len-1] and
// the first/last edges are partners at that node.
type Trail struct {
	Nodes  []int
	Edges  []int
	Closed bool
}

// Len returns the number of edges of the trail.
func (t *Trail) Len() int { return len(t.Edges) }

// Decomposition is the trail decomposition of a graph.
type Decomposition struct {
	Trails []Trail
	// EdgeTrail maps every edge index to the trail that contains it.
	EdgeTrail []int
	// EdgePos maps every edge index to its position within its trail.
	EdgePos []int
}

// Decompose computes the trail decomposition of g induced by the canonical
// pairing. Every edge belongs to exactly one trail.
func Decompose(g *graph.Graph) *Decomposition {
	d := &Decomposition{
		EdgeTrail: make([]int, g.M()),
		EdgePos:   make([]int, g.M()),
	}
	for i := range d.EdgeTrail {
		d.EdgeTrail[i] = -1
	}
	for e := 0; e < g.M(); e++ {
		if d.EdgeTrail[e] != -1 {
			continue
		}
		t := traceTrail(g, e)
		id := len(d.Trails)
		for pos, te := range t.Edges {
			d.EdgeTrail[te] = id
			d.EdgePos[te] = pos
		}
		d.Trails = append(d.Trails, t)
	}
	return d
}

// traceTrail walks the trail containing edge e. It first walks "forward"
// from e's endpoint U through e; if the walk returns to the start the trail
// is closed, otherwise it extends "backward" from U as well.
func traceTrail(g *graph.Graph, e int) Trail {
	start := g.Edge(e).U
	nodes := []int{start}
	edges := []int{}
	cur, curEdge := start, e
	for {
		if len(edges) > g.M() {
			// Each dart can appear at most once in an orbit, so a trail is
			// never longer than M; exceeding it means the pairing invariant
			// was violated.
			panic(fmt.Sprintf("orient: trail through edge %d exceeds %d edges", e, g.M()))
		}
		next := g.Other(curEdge, cur)
		nodes = append(nodes, next)
		edges = append(edges, curEdge)
		p := partnerAt(g, next, curEdge)
		if p == -1 {
			break // open end
		}
		if p == e && next == start {
			// Back at the start through the partner pairing: closed.
			return Trail{Nodes: nodes, Edges: edges, Closed: true}
		}
		cur, curEdge = next, p
	}
	// Open so far; extend backward from start.
	p := partnerAt(g, start, e)
	for p != -1 {
		prev := g.Other(p, start)
		nodes = append([]int{prev}, nodes...)
		edges = append([]int{p}, edges...)
		q := partnerAt(g, prev, p)
		start = prev
		p = q
	}
	return Trail{Nodes: nodes, Edges: edges, Closed: false}
}

// OrientTrail writes the orientation of trail t into dirs (per-edge
// lcl.TowardV / lcl.TowardU), traversing the trail from Nodes[0] toward
// Nodes[len-1] when forward is true and in reverse otherwise.
func OrientTrail(g *graph.Graph, t *Trail, forward bool, dirs []int) {
	for i, e := range t.Edges {
		from := t.Nodes[i]
		if !forward {
			from = t.Nodes[i+1]
		}
		if g.Edge(e).U == from {
			dirs[e] = lcl.TowardV
		} else {
			dirs[e] = lcl.TowardU
		}
	}
}

// CanonicalDirection returns the deterministic no-advice direction choice
// for a trail: the direction a decoder that sees the whole trail picks (the
// paper's ID rule for short cycles, made rotation-invariant). The canonical
// edge e* of the trail is the one whose sorted endpoint-ID pair is
// lexicographically largest; the canonical direction traverses e* from its
// larger-ID endpoint to its smaller-ID endpoint. The returned bool says
// whether that is the "forward" traversal Nodes[i] -> Nodes[i+1] of this
// particular Trail value.
func CanonicalDirection(g *graph.Graph, t *Trail) bool {
	bestPos := -1
	var bestHi, bestLo int64
	for i, e := range t.Edges {
		ed := g.Edge(e)
		hi, lo := g.ID(ed.U), g.ID(ed.V)
		if hi < lo {
			hi, lo = lo, hi
		}
		if bestPos == -1 || hi > bestHi || hi == bestHi && lo > bestLo {
			bestPos, bestHi, bestLo = i, hi, lo
		}
	}
	return g.ID(t.Nodes[bestPos]) > g.ID(t.Nodes[bestPos+1])
}

// Balanced returns the exact almost-balanced orientation of g obtained by
// orienting every trail in its canonical direction — the centralized
// baseline (and the solution every advice schema encodes).
func Balanced(g *graph.Graph) *lcl.Solution {
	dec := Decompose(g)
	dirs := make([]int, g.M())
	for i := range dec.Trails {
		t := &dec.Trails[i]
		OrientTrail(g, t, CanonicalDirection(g, t), dirs)
	}
	sol, err := lcl.OrientationSolution(g, dirs)
	if err != nil {
		panic(err) // dirs has exactly M entries by construction
	}
	return sol
}

// CheckDecomposition validates the structural invariants of a decomposition
// (used by tests): every edge in exactly one trail, consecutive trail edges
// share the claimed node, closed trails wrap correctly.
func (d *Decomposition) Check(g *graph.Graph) error {
	seen := make([]bool, g.M())
	for id := range d.Trails {
		t := &d.Trails[id]
		if len(t.Nodes) != len(t.Edges)+1 {
			return fmt.Errorf("orient: trail %d has %d nodes for %d edges", id, len(t.Nodes), len(t.Edges))
		}
		for i, e := range t.Edges {
			if seen[e] {
				return fmt.Errorf("orient: edge %d in two trails", e)
			}
			seen[e] = true
			ed := g.Edge(e)
			a, b := t.Nodes[i], t.Nodes[i+1]
			if !(ed.U == a && ed.V == b || ed.U == b && ed.V == a) {
				return fmt.Errorf("orient: trail %d edge %d does not connect nodes %d,%d", id, e, a, b)
			}
			if d.EdgeTrail[e] != id || d.EdgePos[e] != i {
				return fmt.Errorf("orient: edge %d index mismatch", e)
			}
		}
		if t.Closed && t.Nodes[0] != t.Nodes[len(t.Nodes)-1] {
			return fmt.Errorf("orient: closed trail %d does not wrap", id)
		}
	}
	for e, s := range seen {
		if !s {
			return fmt.Errorf("orient: edge %d in no trail", e)
		}
	}
	return nil
}
