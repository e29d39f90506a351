// Package growth implements Theorem 4.1 of the paper: on graph families of
// sub-exponential growth, every LCL problem can be solved with one bit of
// advice per node — and the advice can be made arbitrarily sparse — by a
// LOCAL algorithm whose round count depends only on Δ and the schema's
// parameters, never on n.
//
// The construction follows Section 4. The graph is clustered around a
// ruling set; each cluster's center is marked by a connected pattern of
// 1-bits (here: the center and one neighbor — a 1-component of size two),
// while the solution on the cluster-boundary strip is written, one bit per
// node, on an independent set of nodes deep inside the cluster (isolated
// 1-bits). Because marker bits always come in adjacent pairs and data bits
// are always isolated, a decoder can tell them apart, reconstruct the
// clustering, read off the boundary labels, and complete its own cluster by
// (deterministic) brute force — exactly the paper's decode procedure.
//
// The capacity precondition of the theorem — each cluster's interior must
// hold at least as many encodable bits as its boundary strip needs — is
// what sub-exponential growth buys asymptotically. The encoder checks it
// explicitly and fails with a descriptive error when a family (e.g. a
// complete binary tree, which has exponential growth) violates it; that
// dichotomy is experiment E1 versus the Section 8 hardness.
package growth

import (
	"fmt"
	"math/bits"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
)

// Schema solves an arbitrary LCL with 1-bit-per-node advice on
// bounded-growth graphs.
type Schema struct {
	// Problem is the LCL to solve.
	Problem lcl.Problem
	// ClusterRadius is the ruling-set covering radius R: larger R means
	// sparser advice and more capacity, but a larger decoding radius and a
	// larger brute-force completion per cluster.
	ClusterRadius int
	// Solver computes the global solution the advice encodes; nil uses the
	// generic backtracking solver. The prover is centralized, so any
	// correct solver is admissible.
	Solver func(g *graph.Graph) (*lcl.Solution, error)
}

// DecodeRadius is the LOCAL decoding radius.
func (s Schema) DecodeRadius() int { return 3*s.ClusterRadius + s.Problem.Radius() + 4 }

// dataRadius is how deep inside the cluster data bits may sit.
func (s Schema) dataRadius() int { return (s.ClusterRadius - 4) / 2 }

func (s Schema) validate() error {
	if s.Problem == nil {
		return fmt.Errorf("growth: nil problem")
	}
	if s.ClusterRadius < 8 {
		return fmt.Errorf("growth: ClusterRadius must be >= 8, got %d", s.ClusterRadius)
	}
	return nil
}

// label widths for the problem's alphabets.
func widthOf(alphabet []int) int {
	if len(alphabet) == 0 {
		return 0
	}
	w := bits.Len(uint(len(alphabet) - 1))
	if w == 0 {
		w = 1
	}
	return w
}

// alphaIndex returns the index of label in alphabet.
func alphaIndex(alphabet []int, label int) (int, error) {
	for i, l := range alphabet {
		if l == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("growth: label %d not in alphabet %v", label, alphabet)
}

// clustering holds the shared structure both encoder and decoder compute.
type clustering struct {
	markers [][2]int // marker components: {center, partner}
	cluster []int    // node -> marker index, or -1 (unclustered isolated)
	solo    []bool   // node -> isolated with no marker (decodes alone)
}

// buildClustering computes markers and Voronoi clusters on any graph (the
// host graph for the encoder, a view subgraph for consistency tests).
func buildClustering(g *graph.Graph, radius int) (*clustering, error) {
	centers := greedyCover(g, radius)
	c := &clustering{cluster: make([]int, g.N()), solo: make([]bool, g.N())}
	for v := range c.cluster {
		c.cluster[v] = -1
	}
	for _, center := range centers {
		if g.Degree(center) == 0 {
			c.solo[center] = true
			continue
		}
		partner := smallestIDNeighbor(g, center)
		c.markers = append(c.markers, [2]int{center, partner})
	}
	assignVoronoi(g, c)
	return c, nil
}

func greedyCover(g *graph.Graph, cover int) []int {
	order := byID(g)
	covered := make([]bool, g.N())
	var set []int
	for _, v := range order {
		if covered[v] {
			continue
		}
		set = append(set, v)
		for _, u := range g.Ball(v, cover) {
			covered[u] = true
		}
	}
	return set
}

func byID(g *graph.Graph) []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })
	return order
}

func smallestIDNeighbor(g *graph.Graph, v int) int {
	best := -1
	for _, w := range g.Neighbors(v) {
		if best == -1 || g.ID(w) < g.ID(best) {
			best = w
		}
	}
	return best
}

// assignVoronoi assigns every non-solo node to the nearest marker component
// (ties toward the component with the smaller minimum member ID).
//
// One multi-source BFS replaces the historical per-seed sweeps: seeds are
// enqueued in increasing min-member-ID order, so within every distance layer
// the queue stays grouped by that order, and the first marker to discover a
// node is exactly the argmin of (distance, min member ID). O(n + m) total
// instead of O(#markers * (n + m)).
func assignVoronoi(g *graph.Graph, c *clustering) {
	if len(c.markers) == 0 {
		return
	}
	byMinID := make([]int, len(c.markers))
	for i := range byMinID {
		byMinID[i] = i
	}
	sort.Slice(byMinID, func(a, b int) bool {
		return markerMinID(g, c.markers[byMinID[a]]) < markerMinID(g, c.markers[byMinID[b]])
	})
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, g.N())
	for _, mi := range byMinID {
		for _, seed := range c.markers[mi] {
			if dist[seed] == -1 && !c.solo[seed] {
				dist[seed] = 0
				c.cluster[seed] = mi
				queue = append(queue, int32(seed))
			}
		}
	}
	csr := g.Snapshot()
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range csr.Neighbors(int(u)) {
			if dist[w] != -1 || c.solo[w] {
				continue
			}
			dist[w] = dist[u] + 1
			c.cluster[w] = c.cluster[u]
			queue = append(queue, w)
		}
	}
}

func markerMinID(g *graph.Graph, m [2]int) int64 {
	a, b := g.ID(m[0]), g.ID(m[1])
	if a < b {
		return a
	}
	return b
}

// stripNodes returns the boundary strip of cluster mi: every node within
// problem-radius rbar of an endpoint of a cross-cluster edge touching mi,
// sorted by ID.
func stripNodes(g *graph.Graph, c *clustering, mi, rbar int) []int {
	seen := map[int]bool{}
	for _, e := range g.Edges() {
		cu, cv := c.cluster[e.U], c.cluster[e.V]
		if cu == cv || cu != mi && cv != mi {
			continue
		}
		for _, end := range []int{e.U, e.V} {
			for _, w := range g.Ball(end, rbar) {
				seen[w] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return g.ID(out[a]) < g.ID(out[b]) })
	return out
}

// domainNodes returns the completion domain of cluster mi: its members plus
// its strip, sorted by ID.
func domainNodes(g *graph.Graph, c *clustering, mi int, strip []int) []int {
	seen := map[int]bool{}
	for v := 0; v < g.N(); v++ {
		if c.cluster[v] == mi {
			seen[v] = true
		}
	}
	for _, v := range strip {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return g.ID(out[a]) < g.ID(out[b]) })
	return out
}

// stripBits serializes the solution on the strip: for each strip node in ID
// order, its node label index (if the problem labels nodes), then the label
// indices of its incident domain edges in neighbor-ID order (if the problem
// labels edges).
func (s Schema) stripBits(g *graph.Graph, sol *lcl.Solution, strip []int, inDomain map[int]bool) (bitstr.String, error) {
	nodeW := widthOf(s.Problem.NodeAlphabet())
	edgeW := widthOf(s.Problem.EdgeAlphabet())
	out := bitstr.String{}
	for _, v := range strip {
		if nodeW > 0 {
			idx, err := alphaIndex(s.Problem.NodeAlphabet(), sol.Node[v])
			if err != nil {
				return bitstr.String{}, err
			}
			out = out.Concat(bitstr.FromUint(uint64(idx), nodeW))
		}
		if edgeW > 0 {
			for _, e := range g.IncidentEdgesByID(v) {
				if !inDomain[g.Other(e, v)] {
					continue
				}
				idx, err := alphaIndex(s.Problem.EdgeAlphabet(), sol.Edge[e])
				if err != nil {
					return bitstr.String{}, err
				}
				out = out.Concat(bitstr.FromUint(uint64(idx), edgeW))
			}
		}
	}
	return out, nil
}

// dataCarriers returns the canonical ordered list of nodes that can carry
// data bits for cluster mi: a greedy (by ID) independent set among the
// cluster's nodes within dataRadius of the marker, excluding the marker and
// its neighborhood.
func (s Schema) dataCarriers(g *graph.Graph, c *clustering, mi int) []int {
	m := c.markers[mi]
	excluded := map[int]bool{m[0]: true, m[1]: true}
	for _, seed := range m {
		for _, w := range g.Neighbors(seed) {
			excluded[w] = true
		}
	}
	// Only nodes within dataRadius of a marker seed qualify, so two bounded
	// traversals replace the historical pair of full-graph BFS passes. The
	// second ball skips nodes the first already saw.
	sA, sB := graph.NewBFSScratch(), graph.NewBFSScratch()
	var zone []int
	for _, u := range g.BFSWithin(m[0], s.dataRadius(), sA) {
		v := int(u)
		if c.cluster[v] == mi && !excluded[v] {
			zone = append(zone, v)
		}
	}
	for _, u := range g.BFSWithin(m[1], s.dataRadius(), sB) {
		v := int(u)
		if sA.Dist(v) == -1 && c.cluster[v] == mi && !excluded[v] {
			zone = append(zone, v)
		}
	}
	sort.Slice(zone, func(a, b int) bool { return g.ID(zone[a]) < g.ID(zone[b]) })
	// Greedy independent subset.
	taken := map[int]bool{}
	var carriers []int
	for _, v := range zone {
		ok := true
		for _, w := range g.Neighbors(v) {
			if taken[w] {
				ok = false
				break
			}
		}
		if ok {
			taken[v] = true
			carriers = append(carriers, v)
		}
	}
	return carriers
}
