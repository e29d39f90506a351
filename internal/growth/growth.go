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
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
	cluster []int    // node -> marker index, or -1 (no marker reachable: decodes alone)
}

// scratch is the reusable working state of the clustering helpers, which
// the encoder runs on the host graph and the decoder on every node's view:
// node-indexed arrays instead of maps, BFS state, and the storage of the
// completion subgraph and its partial solution. Scratches are pooled
// (scratchPool), so a worker decoding node after node reuses one and stops
// allocating once it has held its largest view. A scratch is not safe for
// concurrent use, and nothing a decoder returns may alias it.
type scratch struct {
	bfs     graph.BFSScratch
	cluster []int
	markers [][2]int
	byMinID []int
	sources []int
	taken   []bool
	// index's visit order is the completion domain last built by
	// domainNodes: index.Pos(v) is v's position in it, or -1.
	index    graph.BFSScratch
	strip    []int
	domain   []int
	carriers []int
	check    []int
	sub      graph.Graph
	partial  lcl.Solution
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resized returns buf resliced to length n, growing it if needed; the
// contents are unspecified.
func resized[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// buildClustering computes markers and Voronoi clusters on the host graph.
func buildClustering(g *graph.Graph, radius int, sc *scratch) *clustering {
	c := &clustering{cluster: make([]int, g.N())}
	for v := range c.cluster {
		c.cluster[v] = -1
	}
	for _, center := range g.GreedyRulingSet(g.NodesByID(), radius) {
		// An isolated center is its own component and decodes alone.
		if g.Degree(center) > 0 {
			c.markers = append(c.markers, [2]int{center, smallestIDNeighbor(g, center)})
		}
	}
	assignVoronoi(g, c, sc)
	return c
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

// assignVoronoi assigns every node reachable from a marker to the nearest
// marker component (ties toward the component with the smaller minimum
// member ID); the rest keep cluster -1. It is one multi-source BFS with the
// markers' members queued in min-member-ID order, so a node's owning source
// is the argmin of (distance, min member ID).
func assignVoronoi(g *graph.Graph, c *clustering, sc *scratch) {
	if len(c.markers) == 0 {
		return
	}
	byMinID := sc.byMinID[:0]
	for i := range c.markers {
		byMinID = append(byMinID, i)
	}
	slices.SortFunc(byMinID, func(a, b int) int {
		return cmp.Compare(markerMinID(g, c.markers[a]), markerMinID(g, c.markers[b]))
	})
	sc.byMinID = byMinID
	sources := sc.sources[:0]
	for _, mi := range byMinID {
		sources = append(sources, c.markers[mi][0], c.markers[mi][1])
	}
	sc.sources = sources
	for _, u := range g.NearestSources(sources, -1, &sc.bfs) {
		c.cluster[u] = byMinID[sc.bfs.Owner(int(u))/2]
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
// sorted by ID. The slice is owned by sc.
func stripNodes(g *graph.Graph, c *clustering, mi, rbar int, sc *scratch) []int {
	sc.sources = sc.sources[:0]
	for _, e := range g.Edges() {
		cu, cv := c.cluster[e.U], c.cluster[e.V]
		if cu == cv || cu != mi && cv != mi {
			continue
		}
		sc.sources = append(sc.sources, e.U, e.V)
	}
	strip := sc.strip[:0]
	for _, v := range g.NearestSources(sc.sources, rbar, &sc.bfs) {
		strip = append(strip, int(v))
	}
	g.SortByID(strip)
	sc.strip = strip
	return strip
}

// domainNodes returns the completion domain of cluster mi, its members plus
// its strip, sorted by ID, and indexes it (sc.index). The slice is owned by
// sc.
func domainNodes(g *graph.Graph, c *clustering, mi int, strip []int, sc *scratch) []int {
	idx := &sc.index
	idx.Begin(g.N())
	for _, v := range strip {
		idx.Visit(v, 0)
	}
	domain := append(sc.domain[:0], strip...)
	for v := 0; v < g.N(); v++ {
		if c.cluster[v] == mi && !idx.Visited(v) {
			domain = append(domain, v)
		}
	}
	g.SortByID(domain)
	sc.domain = domain
	idx.Begin(g.N())
	for _, v := range domain {
		idx.Visit(v, 0)
	}
	return domain
}

// stripBits serializes the solution on the strip: for each strip node in ID
// order, its node label index (if the problem labels nodes), then the label
// indices of its incident domain edges in neighbor-ID order (if the problem
// labels edges). index marks the completion domain (domainNodes).
func (s Schema) stripBits(g *graph.Graph, sol *lcl.Solution, strip []int, index *graph.BFSScratch) (bitstr.String, error) {
	nodeAlpha, edgeAlpha := s.Problem.NodeAlphabet(), s.Problem.EdgeAlphabet()
	nodeW, edgeW := widthOf(nodeAlpha), widthOf(edgeAlpha)
	out := bitstr.String{}
	for _, v := range strip {
		if nodeW > 0 {
			idx, err := alphaIndex(nodeAlpha, sol.Node[v])
			if err != nil {
				return bitstr.String{}, err
			}
			out = out.Concat(bitstr.FromUint(uint64(idx), nodeW))
		}
		if edgeW > 0 {
			for _, e := range g.IncidentEdgesByID(v) {
				if !index.Visited(g.Other(e, v)) {
					continue
				}
				idx, err := alphaIndex(edgeAlpha, sol.Edge[e])
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
// its neighborhood. The slice is owned by sc.
func (s Schema) dataCarriers(g *graph.Graph, c *clustering, mi int, sc *scratch) []int {
	m := c.markers[mi]
	// One traversal from both marker seeds covers the union of their
	// dataRadius balls, and the excluded nodes (the seeds and their
	// neighbors) are exactly those at distance <= 1 from the pair.
	sc.sources = append(sc.sources[:0], m[0], m[1])
	zone := sc.carriers[:0]
	for _, u := range g.NearestSources(sc.sources, s.dataRadius(), &sc.bfs) {
		v := int(u)
		if sc.bfs.Dist(v) > 1 && c.cluster[v] == mi {
			zone = append(zone, v)
		}
	}
	g.SortByID(zone)
	// Greedy independent subset, kept in place: carriers[:k] never
	// overtakes the zone entry being read.
	sc.taken = resized(sc.taken, g.N())
	clear(sc.taken)
	carriers := zone[:0]
	for _, v := range zone {
		ok := true
		for _, w := range g.Neighbors(v) {
			if sc.taken[w] {
				ok = false
				break
			}
		}
		if ok {
			sc.taken[v] = true
			carriers = append(carriers, v)
		}
	}
	sc.carriers = carriers
	return carriers
}
