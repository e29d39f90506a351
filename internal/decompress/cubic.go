package decompress

import (
	"fmt"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// CubicTwoBit implements the encoding sketched in the paper's open problem
// 4 (Section 1.9): on 3-regular graphs, an arbitrary edge subset can be
// stored with exactly TWO bits per node. Delete one canonical edge per
// connected component; the remainder is 2-degenerate, so a peeling order
// orients every edge with outdegree at most 2, and each node stores one
// membership bit per outgoing edge. The deleted edge's bit is stored in the
// spare slot of its smaller-ID endpoint, freed (if necessary) by flipping a
// directed path of the orientation.
//
// The open problem asks whether such an encoding can be decompressed
// LOCALLY; this implementation decodes by deterministically replaying the
// global peeling, which needs Θ(diameter) rounds — it realizes the
// counting side of the question (2 bits suffice information-theoretically,
// between the trivial 3 and the impossible 1) while leaving the locality
// side open, as the paper does. Decode reports the honest round count.
type CubicTwoBit struct{}

var _ Codec = CubicTwoBit{}

// Name implements Codec.
func (CubicTwoBit) Name() string { return "cubic-2bit" }

// MaxBits implements Codec.
func (CubicTwoBit) MaxBits(d int) int { return 2 }

// cubicPlan is the shared deterministic structure both encoder and decoder
// derive from the graph alone.
type cubicPlan struct {
	deleted   []int   // one edge index per component
	holder    []int   // per component: node storing the deleted bit
	out       [][]int // per node: outgoing edge indices, canonical order
	edgeOwner []int   // per edge (excluding deleted): the tail node
}

func buildCubicPlan(g *graph.Graph) (*cubicPlan, error) {
	if !g.IsRegular() || g.MaxDegree() != 3 {
		return nil, fmt.Errorf("decompress: cubic codec needs a 3-regular graph, got Δ=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	comp, numComp := g.Components()
	plan := &cubicPlan{
		deleted:   make([]int, numComp),
		holder:    make([]int, numComp),
		out:       make([][]int, g.N()),
		edgeOwner: make([]int, g.M()),
	}
	for i := range plan.deleted {
		plan.deleted[i] = -1
	}
	for e := range plan.edgeOwner {
		plan.edgeOwner[e] = -1
	}
	// Canonical deleted edge per component: lexicographically largest
	// sorted endpoint-ID pair.
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		c := comp[ed.U]
		if plan.deleted[c] == -1 || edgeIDPairLess(g, plan.deleted[c], e) {
			plan.deleted[c] = e
		}
	}
	isDeleted := make([]bool, g.M())
	for _, e := range plan.deleted {
		isDeleted[e] = true
	}

	// Peeling order on the graph minus the deleted edges: repeatedly take
	// the smallest-ID node with remaining degree <= 2 and orient its
	// remaining edges away from it.
	deg := make([]int, g.N())
	removedEdge := make([]bool, g.M())
	removedNode := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		for _, e := range g.IncidentEdges(v) {
			if !isDeleted[e] {
				deg[v]++
			}
		}
	}
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })

	outDeg := make([]int, g.N())
	for peeled := 0; peeled < g.N(); peeled++ {
		pick := -1
		for _, v := range order {
			if !removedNode[v] && deg[v] <= 2 {
				pick = v
				break
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("decompress: graph minus deleted edges is not 2-degenerate — not 3-regular after all")
		}
		removedNode[pick] = true
		for _, e := range g.IncidentEdges(pick) {
			if isDeleted[e] || removedEdge[e] {
				continue
			}
			removedEdge[e] = true
			plan.edgeOwner[e] = pick
			outDeg[pick]++
			w := g.Other(e, pick)
			deg[w]--
		}
		deg[pick] = 0
	}

	// Holders and spare slots: per component the smaller-ID endpoint of the
	// deleted edge must end with outdegree <= 1; free a slot by flipping a
	// directed walk to a node with spare capacity.
	for c, e := range plan.deleted {
		ed := g.Edge(e)
		a := ed.U
		if g.ID(ed.V) < g.ID(ed.U) {
			a = ed.V
		}
		plan.holder[c] = a
		if outDeg[a] <= 1 {
			continue
		}
		if err := freeSlot(g, plan, outDeg, a); err != nil {
			return nil, err
		}
	}

	// Materialize per-node outgoing lists in canonical neighbor-ID order.
	for v := 0; v < g.N(); v++ {
		var outs []int
		for _, e := range g.IncidentEdgesByID(v) {
			if plan.edgeOwner[e] == v {
				outs = append(outs, e)
			}
		}
		plan.out[v] = outs
	}
	return plan, nil
}

// edgeIDPairLess compares edges by their sorted endpoint-ID pairs.
func edgeIDPairLess(g *graph.Graph, e, f int) bool {
	loE, hiE := sortedEdgeIDs(g, e)
	loF, hiF := sortedEdgeIDs(g, f)
	if hiE != hiF {
		return hiE < hiF
	}
	return loE < loF
}

func sortedEdgeIDs(g *graph.Graph, e int) (lo, hi int64) {
	ed := g.Edge(e)
	lo, hi = g.ID(ed.U), g.ID(ed.V)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// freeSlot finds a directed path from node a (outdegree 2) to a node with
// outdegree <= 1, following the smallest-neighbor-ID outgoing edge at every
// step, and then flips the ownership of every path edge. The peeling
// orientation is acyclic, so the walk terminates; flipping the whole path
// afterwards lowers a's outdegree by one, keeps intermediate nodes
// unchanged, and raises the endpoint's to at most 2.
func freeSlot(g *graph.Graph, plan *cubicPlan, outDeg []int, a int) error {
	var pathEdges []int
	cur := a
	for steps := 0; steps <= g.M(); steps++ {
		if cur != a && outDeg[cur] <= 1 {
			// Flip the collected path.
			for _, e := range pathEdges {
				owner := plan.edgeOwner[e]
				other := g.Other(e, owner)
				plan.edgeOwner[e] = other
				outDeg[owner]--
				outDeg[other]++
			}
			return nil
		}
		// Smallest-ID outgoing edge of cur in the original orientation.
		pick := -1
		for _, e := range g.IncidentEdgesByID(cur) {
			if plan.edgeOwner[e] == cur {
				pick = e
				break
			}
		}
		if pick == -1 {
			return fmt.Errorf("decompress: flip walk stuck at a node with no outgoing edge but full slots")
		}
		pathEdges = append(pathEdges, pick)
		cur = g.Other(pick, cur)
	}
	return fmt.Errorf("decompress: flip walk did not terminate")
}

// Encode implements Codec.
func (CubicTwoBit) Encode(g *graph.Graph, x EdgeSet) (local.Advice, error) {
	plan, err := buildCubicPlan(g)
	if err != nil {
		return nil, err
	}
	holderOf := map[int]int{} // node -> component whose deleted bit it holds
	for c, h := range plan.holder {
		holderOf[h] = c
	}
	advice := make(local.Advice, g.N())
	for v := 0; v < g.N(); v++ {
		s := bitstr.String{}
		for _, e := range plan.out[v] {
			bit := 0
			if x[e] {
				bit = 1
			}
			s = s.Append(bit)
		}
		if c, isHolder := holderOf[v]; isHolder {
			bit := 0
			if x[plan.deleted[c]] {
				bit = 1
			}
			s = s.Append(bit)
		}
		if s.Len() > 2 {
			return nil, fmt.Errorf("decompress: node %d would need %d bits — slot freeing failed", v, s.Len())
		}
		for s.Len() < 2 {
			s = s.Append(0)
		}
		advice[v] = s
	}
	return advice, nil
}

// Decode implements Codec. Decoding replays the global plan, which in the
// LOCAL model costs Θ(diameter) rounds; the stats report that honestly.
func (CubicTwoBit) Decode(g *graph.Graph, advice local.Advice) (EdgeSet, local.Stats, error) {
	if len(advice) != g.N() {
		return nil, local.Stats{}, fmt.Errorf("decompress: advice length %d for %d nodes", len(advice), g.N())
	}
	plan, err := buildCubicPlan(g)
	if err != nil {
		return nil, local.Stats{}, err
	}
	holderOf := map[int]int{}
	for c, h := range plan.holder {
		holderOf[h] = c
	}
	x := make(EdgeSet)
	for v := 0; v < g.N(); v++ {
		if advice[v].Len() != 2 {
			return nil, local.Stats{}, fmt.Errorf("decompress: node %d holds %d bits, want 2", v, advice[v].Len())
		}
		i := 0
		for _, e := range plan.out[v] {
			if advice[v].Bit(i) == 1 {
				x[e] = true
			}
			i++
		}
		if c, isHolder := holderOf[v]; isHolder {
			if advice[v].Bit(i) == 1 {
				x[plan.deleted[c]] = true
			}
		}
	}
	return x, local.Stats{Rounds: g.Diameter()}, nil
}
