package coloring

import (
	"fmt"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// This file implements Theorem 7.1: 3-coloring any 3-colorable graph with
// exactly one bit of advice per node, decodable in poly(Δ) rounds.
//
// Encoding. Fix a greedy 3-coloring φ (every node of color i has neighbors
// of all colors < i). Nodes of color 1 get bit 1 ("type-1 bits"). For every
// large connected component C of G[{2,3}], a ruling set of C is chosen and
// near each ruling node a GROUP of additional 1-bits ("type-23 bits") is
// placed on nodes of C, arranged so that
//
//   - a 1-bit is type-23 iff its node has at least two neighbors with bit 1
//     (Lemma 7.2 provides the candidates: a node w with two color-1
//     neighbors, or two adjacent nodes x, y each with a color-1 neighbor),
//   - every color-1 node keeps at most one 1-bit neighbor (so its own bit
//     stays recognizable as type 1), and
//   - the group consists of two nearby marked sets S and S′; marking only
//     the set containing the group's smallest-ID node s yields one connected
//     component of marks and says φ(s) = 2, marking both yields two
//     components and says φ(s) = 3.
//
// Decoding. A node whose bit is type 1 outputs color 1. Other nodes explore
// their component of G[{2,3}]: small components (fully visible) are
// 2-colored canonically; in large components the nearest fully visible
// group reveals φ(s) for its anchor s, and the bipartition parity of the
// component transfers the color to the node.

// ThreeColoring is the 1-bit advice schema of Theorem 7.1. It implements
// core.Schema semantics directly (its advice is natively uniform one bit
// per node).
type ThreeColoring struct {
	// CoverRadius is the ruling-set covering radius inside each large
	// component; components of diameter <= SmallDiameter() carry no groups.
	CoverRadius int
	// GroupSpread bounds the distance (within the component) between the
	// two marked sets of one group.
	GroupSpread int
}

// NewThreeColoring returns the schema with defaults suited to the
// experiment graphs.
func NewThreeColoring() ThreeColoring {
	return ThreeColoring{CoverRadius: 14, GroupSpread: 3}
}

// SmallDiameter is the component diameter up to which no advice is needed.
func (t ThreeColoring) SmallDiameter() int { return t.DecodeRadius() - 3 }

// DecodeRadius is the LOCAL decoding radius: far enough that a node sees
// its nearest group (CoverRadius + GroupSpread), the whole of that group
// (+2·GroupSpread), and the component geodesics between group members
// (+2·GroupSpread more), with slack.
func (t ThreeColoring) DecodeRadius() int { return t.CoverRadius + 5*t.GroupSpread + 4 }

// Name identifies the schema.
func (ThreeColoring) Name() string { return "3-coloring" }

// Problem is the 3-coloring LCL.
func (ThreeColoring) Problem() lcl.Problem { return lcl.Coloring{K: 3} }

func (t ThreeColoring) validate() error {
	if t.GroupSpread < 2 {
		return fmt.Errorf("coloring: three-coloring needs GroupSpread >= 2, got %+v", t)
	}
	// Groups of different ruling nodes must stay farther apart than the
	// decoder's same-group clustering threshold (2*GroupSpread).
	if t.CoverRadius < 4*t.GroupSpread+2 {
		return fmt.Errorf("coloring: three-coloring needs CoverRadius >= 4*GroupSpread+2, got %+v", t)
	}
	return nil
}

// Greedify turns any proper coloring into a greedy one: repeatedly recolor
// any node of color i that lacks a neighbor of some color j < i down to the
// smallest such j. Colors only decrease, so this terminates; the result is
// proper and greedy.
func Greedify(g *graph.Graph, colors []int) []int {
	out := append([]int(nil), colors...)
	nbr := newNeighborColors(g)
	changed := true
	for changed {
		changed = false
		for v := 0; v < g.N(); v++ {
			if j := nbr.smallestMissing(g, out, v); j < out[v] {
				out[v] = j
				changed = true
			}
		}
	}
	return out
}

// IsGreedy reports whether every node of color i has neighbors of all
// colors below i.
func IsGreedy(g *graph.Graph, colors []int) bool {
	nbr := newNeighborColors(g)
	for v := 0; v < g.N(); v++ {
		if nbr.smallestMissing(g, colors, v) < colors[v] {
			return false
		}
	}
	return true
}

// neighborColors finds the smallest color missing around a node with one
// color-indexed stamp slice. Only colors 1..Δ+1 can matter: a node of
// degree d always misses one of 1..d+1.
type neighborColors struct {
	seen  []int // seen[c] == stamp: some neighbor has color c
	stamp int
}

func newNeighborColors(g *graph.Graph) *neighborColors {
	return &neighborColors{seen: make([]int, g.MaxDegree()+2)}
}

// smallestMissing returns the smallest color j >= 1 that no neighbor of v
// has under colors.
func (nc *neighborColors) smallestMissing(g *graph.Graph, colors []int, v int) int {
	nc.stamp++
	for _, w := range g.Neighbors(v) {
		if c := colors[w]; c >= 1 && c < len(nc.seen) {
			nc.seen[c] = nc.stamp
		}
	}
	j := 1
	for nc.seen[j] == nc.stamp {
		j++
	}
	return j
}

// markGroup is one group's bookkeeping during encoding.
type markGroup struct {
	setA, setB []int // the two candidate sets (S and S')
}

// Encode computes the one-bit-per-node advice.
func (t ThreeColoring) Encode(g *graph.Graph) (local.Advice, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	phi, err := greedyBase(g)
	if err != nil {
		return nil, err
	}

	bit := make([]int, g.N())
	for v, c := range phi {
		if c == 1 {
			bit[v] = 1
		}
	}

	// markedNbrs[u] counts marked (type-23) neighbors of u; color-1 nodes
	// must stay at <= 1.
	marked := make([]bool, g.N())
	components := colorComponents(g, phi)
	for _, comp := range components {
		sub, orig := g.InducedSubgraph(comp)
		if sub.Diameter() <= t.SmallDiameter() {
			continue // small component: decoded canonically, no advice
		}
		rulers := sub.GreedyRulingSet(sub.NodesByID(), t.CoverRadius)
		for _, r := range rulers {
			group, err := t.placeGroup(g, sub, orig, phi, marked, bit, r)
			if err != nil {
				return nil, err
			}
			// Anchor: smallest-ID node of the group.
			s := smallestID(g, append(append([]int(nil), group.setA...), group.setB...))
			var toMark []int
			if phi[s] == 2 {
				if containsNode(group.setA, s) {
					toMark = group.setA
				} else {
					toMark = group.setB
				}
			} else {
				toMark = append(append([]int(nil), group.setA...), group.setB...)
			}
			for _, v := range toMark {
				marked[v] = true
				bit[v] = 1
			}
		}
	}

	advice := make(local.Advice, g.N())
	for v, b := range bit {
		advice[v] = bitstr.New(b)
	}
	// Prover self-check: the advice must decode to a proper 3-coloring.
	sol, _, err := t.Decode(g, advice)
	if err != nil {
		return nil, fmt.Errorf("coloring: three-coloring self-check: %w", err)
	}
	if err := lcl.Verify(lcl.Coloring{K: 3}, g, sol); err != nil {
		return nil, fmt.Errorf("coloring: three-coloring self-check: %w", err)
	}
	return advice, nil
}

// colorComponents returns the connected components of G[{2,3}] under phi.
func colorComponents(g *graph.Graph, phi []int) [][]int {
	seen := make([]bool, g.N())
	var out [][]int
	for v := 0; v < g.N(); v++ {
		if phi[v] == 1 || seen[v] {
			continue
		}
		var comp []int
		queue := []int{v}
		seen[v] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, w := range g.Neighbors(u) {
				if phi[w] != 1 && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// placeGroup finds the two marked sets S and S′ near ruling node r (an
// index into sub), mirroring Lemma 7.2 plus the disjointness constraints of
// the Section 7 encoding.
func (t ThreeColoring) placeGroup(g, sub *graph.Graph, orig []int, phi []int, marked []bool, bit []int, r int) (markGroup, error) {
	distR := sub.BFSFrom(r)
	// Candidate sets in increasing distance from r.
	candidates := t.candidateSets(g, sub, orig, phi, distR)
	for i, a := range candidates {
		if !t.setOK(g, phi, marked, bit, a, nil) {
			continue
		}
		for _, b := range candidates[i+1:] {
			if !t.groupCompatible(g, sub, orig, a, b) {
				continue
			}
			if !t.setOK(g, phi, marked, bit, b, a) {
				continue
			}
			return markGroup{setA: a, setB: b}, nil
		}
	}
	return markGroup{}, fmt.Errorf("coloring: no feasible mark group near component node %d", g.ID(orig[r]))
}

// candidateSets enumerates Lemma 7.2 candidates (in g-node indices) within
// GroupSpread of r in the component.
func (t ThreeColoring) candidateSets(g, sub *graph.Graph, orig []int, phi []int, distR []int) [][]int {
	type cand struct {
		nodes []int
		d     int
	}
	var cands []cand
	for i := 0; i < sub.N(); i++ {
		if distR[i] == -1 || distR[i] > t.GroupSpread {
			continue
		}
		v := orig[i]
		if countColor1Neighbors(g, phi, v) >= 2 {
			cands = append(cands, cand{nodes: []int{v}, d: distR[i]})
		}
		for _, j := range sub.Neighbors(i) {
			if j < i || distR[j] == -1 || distR[j] > t.GroupSpread {
				continue
			}
			w := orig[j]
			// x, y adjacent in C without a common color-1 neighbor.
			if !shareColor1Neighbor(g, phi, v, w) &&
				countColor1Neighbors(g, phi, v) >= 1 && countColor1Neighbors(g, phi, w) >= 1 {
				cands = append(cands, cand{nodes: []int{v, w}, d: minInt(distR[i], distR[j])})
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return g.ID(cands[a].nodes[0]) < g.ID(cands[b].nodes[0])
	})
	out := make([][]int, len(cands))
	for i, c := range cands {
		out[i] = c.nodes
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func countColor1Neighbors(g *graph.Graph, phi []int, v int) int {
	n := 0
	for _, w := range g.Neighbors(v) {
		if phi[w] == 1 {
			n++
		}
	}
	return n
}

func shareColor1Neighbor(g *graph.Graph, phi []int, v, w int) bool {
	for _, u := range g.Neighbors(v) {
		if phi[u] != 1 {
			continue
		}
		for _, x := range g.Neighbors(w) {
			if x == u {
				return true
			}
		}
	}
	return false
}

// setOK checks that marking the nodes of set keeps the invariants: no node
// already marked; no color-1 node collects a second marked neighbor; the
// set is not adjacent to previously marked nodes or to partner (which must
// stay a separate connected component); single-node sets must not be
// adjacent to partner's nodes either.
func (t ThreeColoring) setOK(g *graph.Graph, phi []int, marked []bool, bit []int, set, partner []int) bool {
	inSet := map[int]bool{}
	for _, v := range set {
		inSet[v] = true
	}
	inPartner := map[int]bool{}
	for _, v := range partner {
		inPartner[v] = true
	}
	for _, v := range set {
		if marked[v] || phi[v] == 1 {
			return false
		}
		for _, u := range g.Neighbors(v) {
			if inSet[u] {
				continue
			}
			if marked[u] || inPartner[u] {
				return false // would merge with another marked set
			}
		}
	}
	// Color-1 neighbors of the set must not already have a marked neighbor
	// and must not see two nodes of this set (plus partner handled above).
	seen := map[int]int{}
	for _, v := range set {
		for _, u := range g.Neighbors(v) {
			if phi[u] == 1 {
				seen[u]++
			}
		}
	}
	for _, v := range partner {
		for _, u := range g.Neighbors(v) {
			if phi[u] == 1 {
				seen[u]++
			}
		}
	}
	for u, cnt := range seen {
		if cnt > 1 {
			return false
		}
		if hasMarkedNeighbor(g, marked, u) {
			return false
		}
	}
	return true
}

func hasMarkedNeighbor(g *graph.Graph, marked []bool, u int) bool {
	for _, w := range g.Neighbors(u) {
		if marked[w] {
			return true
		}
	}
	return false
}

// groupCompatible checks that the two sets of a group are close enough in
// the component to be seen together, yet structurally separate.
func (t ThreeColoring) groupCompatible(g, sub *graph.Graph, orig []int, a, b []int) bool {
	// Disjoint and non-adjacent in g.
	inA := map[int]bool{}
	for _, v := range a {
		inA[v] = true
	}
	for _, v := range b {
		if inA[v] {
			return false
		}
		for _, u := range g.Neighbors(v) {
			if inA[u] {
				return false
			}
		}
	}
	return true
}

func smallestID(g *graph.Graph, nodes []int) int {
	best := nodes[0]
	for _, v := range nodes[1:] {
		if g.ID(v) < g.ID(best) {
			best = v
		}
	}
	return best
}

func containsNode(set []int, v int) bool {
	for _, u := range set {
		if u == v {
			return true
		}
	}
	return false
}
