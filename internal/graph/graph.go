// Package graph provides the simple undirected graphs on which the LOCAL
// model simulator and all advice schemas operate, together with the
// generators and graph algorithms used by the experiments.
//
// Nodes are indexed 0..n-1. Separately from the index, every node carries a
// unique identifier (ID) from {1, ..., poly(n)}, as in the LOCAL model; advice
// schemas and algorithms may depend on IDs but never on indices. Edges are
// identified by an edge index 0..m-1 and are undirected.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Edge is an undirected edge between node indices U and V with U < V.
type Edge struct {
	U, V int
}

// Graph is a simple undirected graph. Construct with New and AddEdge; a
// finished graph is immutable by convention (algorithms never mutate it).
type Graph struct {
	n     int
	ids   []int64 // unique identifiers, one per node
	adj   [][]int // adjacency lists of neighbor node indices
	inc   [][]int // incident edge indices, aligned with adj
	edges []Edge

	// buf is the storage Rebuild lays adj and inc out in (2m adjacency
	// slots, 2m incidence slots, then n degree counters) and reuses on the
	// next Rebuild.
	buf []int

	// byIDs caches the id -> node index map, built on first NodeByID; the
	// view engine constructs thousands of short-lived subgraphs whose IDs
	// are never looked up, so the map must not be paid for eagerly.
	byIDs atomic.Pointer[map[int64]int]

	// snap caches the CSR adjacency snapshot (see Snapshot); any mutation
	// of the adjacency structure stores nil to invalidate it.
	snap atomic.Pointer[CSR]
}

// New returns an empty graph with n nodes and sequential IDs 1..n.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &Graph{
		n:   n,
		ids: make([]int64, n),
		adj: make([][]int, n),
		inc: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		g.ids[v] = int64(v + 1)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v} and returns its edge index.
// It returns an error on loops, duplicate edges, or out-of-range endpoints.
func (g *Graph) AddEdge(u, v int) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("%w: edge {%d,%d} out of range [0,%d)", ErrBadEdge, u, v, g.n)
	}
	if u == v {
		return 0, fmt.Errorf("%w: loop at node %d", ErrBadEdge, u)
	}
	if g.HasEdge(u, v) {
		return 0, fmt.Errorf("%w: duplicate edge {%d,%d}", ErrBadEdge, u, v)
	}
	if u > v {
		u, v = v, u
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v})
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.inc[u] = append(g.inc[u], idx)
	g.inc[v] = append(g.inc[v], idx)
	g.snap.Store(nil)
	return idx, nil
}

// NewFromEdges assembles a graph in one pass from node IDs and a complete
// edge list; it is Rebuild on a new graph.
func NewFromEdges(ids []int64, edges []Edge) *Graph {
	g := &Graph{}
	g.Rebuild(ids, edges)
	return g
}

// Rebuild replaces g in place by the graph on len(ids) nodes carrying ids
// and the given edges, reusing g's storage wherever it is large enough: a
// graph rebuilt over and over (the ball engine's per-worker view) stops
// allocating once it has held its largest graph. Both slices are copied.
// Edges must satisfy U < V with both endpoints in range, and the edge list
// must describe a simple graph (no duplicates); endpoint violations panic,
// duplicates are the caller's responsibility (Validate detects them). IDs
// must be positive; duplicate IDs are detected lazily, on the first NodeByID
// lookup.
//
// Adjacency order matches what repeated AddEdge calls in the same edge order
// would produce, so the two construction paths are interchangeable. Rebuild
// drops the cached NodeByID map and CSR snapshot, and every slice g's
// accessors returned before it is invalid afterwards.
func (g *Graph) Rebuild(ids []int64, edges []Edge) {
	n, m := len(ids), len(edges)
	for v, id := range ids {
		if id <= 0 {
			panic(fmt.Sprintf("graph: non-positive ID %d for node %d", id, v))
		}
	}
	for _, e := range edges {
		if e.U < 0 || e.V >= n || e.U >= e.V {
			panic(fmt.Sprintf("graph: bad edge {%d,%d} for %d nodes", e.U, e.V, n))
		}
	}
	g.n = n
	g.ids = append(g.ids[:0], ids...)
	g.edges = append(g.edges[:0], edges...)
	g.buf = slices.Grow(g.buf[:0], 4*m+n)[:4*m+n]
	adjBacking, incBacking, deg := g.buf[:2*m], g.buf[2*m:4*m], g.buf[4*m:]
	clear(deg)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	g.adj = slices.Grow(g.adj[:0], n)[:n]
	g.inc = slices.Grow(g.inc[:0], n)[:n]
	off := 0
	for v := 0; v < n; v++ {
		g.adj[v] = adjBacking[off : off : off+deg[v]]
		g.inc[v] = incBacking[off : off : off+deg[v]]
		off += deg[v]
	}
	for i, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], e.V)
		g.adj[e.V] = append(g.adj[e.V], e.U)
		g.inc[e.U] = append(g.inc[e.U], i)
		g.inc[e.V] = append(g.inc[e.V], i)
	}
	g.byIDs.Store(nil)
	g.snap.Store(nil)
}

// MustAddEdge is AddEdge that panics on error; for generators and tests.
func (g *Graph) MustAddEdge(u, v int) int {
	idx, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return idx
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the shorter list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the neighbor indices of v. The returned slice must not
// be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// IncidentEdges returns the edge indices incident to v, aligned with
// Neighbors(v): IncidentEdges(v)[i] is the edge to Neighbors(v)[i]. The
// returned slice must not be modified.
func (g *Graph) IncidentEdges(v int) []int { return g.inc[v] }

// IncidentEdgesByID returns a fresh copy of v's incident edges ordered by
// the neighbor's ID. It is the canonical form of the "arbitrary fixed order"
// of a node's edges that the paper's constructions leave open: it depends on
// IDs only, so an encoder on the host graph and a decoder on a view whose
// node sees all its edges derive the same order.
func (g *Graph) IncidentEdgesByID(v int) []int {
	inc := append([]int(nil), g.inc[v]...)
	sort.Slice(inc, func(a, b int) bool {
		return g.ids[g.Other(inc[a], v)] < g.ids[g.Other(inc[b], v)]
	})
	return inc
}

// Edge returns the endpoints of edge index e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Edges returns all edges. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeIndex returns the index of edge {u, v}, or -1 if absent.
func (g *Graph) EdgeIndex(u, v int) int {
	for i, e := range g.inc[u] {
		if g.adj[u][i] == v {
			return e
		}
	}
	return -1
}

// Other returns the endpoint of edge e that is not v.
func (g *Graph) Other(e, v int) int {
	ed := g.edges[e]
	if ed.U == v {
		return ed.V
	}
	if ed.V == v {
		return ed.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", v, e))
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Δ, the maximum degree (0 for the empty graph). When a
// CSR snapshot is cached the precomputed value is returned; callers in hot
// loops should take a Snapshot first so every MaxDegree call is O(1).
func (g *Graph) MaxDegree() int {
	if c := g.snap.Load(); c != nil {
		return c.maxDeg
	}
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// MinDegree returns the minimum degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	d := len(g.adj[0])
	for v := 1; v < g.n; v++ {
		if len(g.adj[v]) < d {
			d = len(g.adj[v])
		}
	}
	return d
}

// IsRegular reports whether all nodes have the same degree.
func (g *Graph) IsRegular() bool { return g.n == 0 || g.MaxDegree() == g.MinDegree() }

// AllDegreesEven reports whether every node has even degree.
func (g *Graph) AllDegreesEven() bool {
	for v := 0; v < g.n; v++ {
		if len(g.adj[v])%2 != 0 {
			return false
		}
	}
	return true
}

// ID returns the unique identifier of node v.
func (g *Graph) ID(v int) int64 { return g.ids[v] }

// NodeByID returns the node index carrying the identifier id, or -1. The
// first call builds the lookup map (panicking on duplicate IDs); concurrent
// first calls may each build it, which is safe because ids are immutable.
func (g *Graph) NodeByID(id int64) int {
	m := g.byIDs.Load()
	if m == nil {
		idx := make(map[int64]int, g.n)
		for v, nid := range g.ids {
			if prev, dup := idx[nid]; dup {
				panic(fmt.Sprintf("graph: duplicate ID %d on nodes %d and %d", nid, prev, v))
			}
			idx[nid] = v
		}
		m = &idx
		g.byIDs.Store(m)
	}
	if v, ok := (*m)[id]; ok {
		return v
	}
	return -1
}

// SetIDs installs the given unique identifiers (one per node). It returns an
// error if the slice has the wrong length or contains duplicates or
// non-positive values.
func (g *Graph) SetIDs(ids []int64) error {
	if len(ids) != g.n {
		return fmt.Errorf("%w: got %d IDs for %d nodes", ErrBadID, len(ids), g.n)
	}
	seen := make(map[int64]bool, len(ids))
	for v, id := range ids {
		if id <= 0 {
			return fmt.Errorf("%w: non-positive ID %d for node %d", ErrBadID, id, v)
		}
		if seen[id] {
			return fmt.Errorf("%w: duplicate ID %d", ErrBadID, id)
		}
		seen[id] = true
	}
	g.ids = append([]int64(nil), ids...)
	g.byIDs.Store(nil)
	return nil
}

// SortAdjacencyByID orders every adjacency list (and the aligned incident
// edge list) by the neighbor's identifier. Several constructions in the
// paper fix "an arbitrary consistent order" of a node's edges; sorting by ID
// makes that order deterministic and ID-dependent only.
func (g *Graph) SortAdjacencyByID() {
	for v := 0; v < g.n; v++ {
		idx := make([]int, len(g.adj[v]))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return g.ids[g.adj[v][idx[a]]] < g.ids[g.adj[v][idx[b]]]
		})
		adj := make([]int, len(idx))
		inc := make([]int, len(idx))
		for i, j := range idx {
			adj[i] = g.adj[v][j]
			inc[i] = g.inc[v][j]
		}
		g.adj[v] = adj
		g.inc[v] = inc
	}
	g.snap.Store(nil)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return NewFromEdges(g.ids, g.edges)
}

// Validate checks internal consistency (used by tests and after generators).
func (g *Graph) Validate() error {
	if len(g.ids) != g.n || len(g.adj) != g.n || len(g.inc) != g.n {
		return fmt.Errorf("graph: inconsistent sizes")
	}
	degSum := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) != len(g.inc[v]) {
			return fmt.Errorf("graph: node %d adj/inc mismatch", v)
		}
		degSum += len(g.adj[v])
		for i, w := range g.adj[v] {
			e := g.edges[g.inc[v][i]]
			if !(e.U == v && e.V == w || e.U == w && e.V == v) {
				return fmt.Errorf("graph: node %d incident edge %d does not match neighbor %d", v, g.inc[v][i], w)
			}
		}
	}
	if degSum != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m = %d", degSum, 2*len(g.edges))
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.n, g.M(), g.MaxDegree())
}
