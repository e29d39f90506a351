package graph

import (
	"fmt"
	"sync"
)

// CSR is an immutable compressed-sparse-row snapshot of a graph's adjacency
// structure: all neighbor lists packed into one contiguous array. The view
// engine and the bounded-BFS hot path iterate neighbors through a CSR
// instead of the per-node slices to avoid pointer chasing, and the snapshot
// carries the precomputed maximum degree so hot loops never rescan for Δ.
//
// Neighbor order within a node matches the graph's adjacency order, so
// traversals over a CSR visit nodes in exactly the same order as traversals
// over Neighbors.
type CSR struct {
	offsets []int32 // len n+1; neighbors of v are targets[offsets[v]:offsets[v+1]]
	targets []int32 // concatenated neighbor indices, len 2m
	maxDeg  int
}

// Neighbors returns the neighbor indices of v as a shared slice; it must not
// be modified.
func (c *CSR) Neighbors(v int) []int32 { return c.targets[c.offsets[v]:c.offsets[v+1]] }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.offsets[v+1] - c.offsets[v]) }

// MaxDegree returns the precomputed maximum degree Δ.
func (c *CSR) MaxDegree() int { return c.maxDeg }

// N returns the number of nodes in the snapshot.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// Snapshot returns the graph's CSR adjacency snapshot, building and caching
// it on first use. AddEdge invalidates the cache, so a snapshot taken after
// construction finishes is built exactly once per graph. Concurrent callers
// may race to build the first snapshot; every result is equivalent.
func (g *Graph) Snapshot() *CSR {
	if c := g.snap.Load(); c != nil {
		return c
	}
	c := g.buildCSR()
	g.snap.Store(c)
	return c
}

func (g *Graph) buildCSR() *CSR {
	c := &CSR{
		offsets: make([]int32, g.n+1),
		targets: make([]int32, 0, 2*len(g.edges)),
	}
	for v := 0; v < g.n; v++ {
		c.offsets[v] = int32(len(c.targets))
		for _, w := range g.adj[v] {
			c.targets = append(c.targets, int32(w))
		}
		if d := len(g.adj[v]); d > c.maxDeg {
			c.maxDeg = d
		}
	}
	c.offsets[g.n] = int32(len(c.targets))
	return c
}

// BFSScratch holds the reusable state of bounded breadth-first traversals:
// an epoch-stamped visited array (no clearing between calls), per-node
// distances and visit positions, and the traversal order, which doubles as
// the BFS queue. A zero BFSScratch is ready to use; it grows to the largest
// graph it has seen and is NOT safe for concurrent use — give each worker
// its own.
type BFSScratch struct {
	stamp []uint32 // stamp[v] == epoch  ⇔  v visited in the current traversal
	dist  []int32
	pos   []int32 // position of v in order, for view-local index lookup
	owner []int32 // index of the source that claimed v (NearestSources only)
	order []int32 // nodes in visit order; also the BFS queue
	epoch uint32
}

// NewBFSScratch returns an empty scratch; it sizes itself lazily.
func NewBFSScratch() *BFSScratch { return &BFSScratch{} }

// begin starts a new traversal epoch over n nodes.
func (s *BFSScratch) begin(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.dist = make([]int32, n)
		s.pos = make([]int32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped after 2^32 traversals: clear stamps once
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.order = s.order[:0]
}

// Dist returns the distance from the most recent traversal's source to v, or
// -1 if v was not reached.
func (s *BFSScratch) Dist(v int) int {
	if v < 0 || v >= len(s.stamp) || s.stamp[v] != s.epoch {
		return -1
	}
	return int(s.dist[v])
}

// Pos returns v's position in the most recent traversal's visit order, or -1
// if v was not reached. Visit positions are the canonical view-local node
// indices used by the view engine.
func (s *BFSScratch) Pos(v int) int {
	if v < 0 || v >= len(s.stamp) || s.stamp[v] != s.epoch {
		return -1
	}
	return int(s.pos[v])
}

// visit stamps v at distance d and appends it to the order.
func (s *BFSScratch) visit(v int32, d int32) {
	s.stamp[v] = s.epoch
	s.dist[v] = d
	s.pos[v] = int32(len(s.order))
	s.order = append(s.order, v)
}

// Begin starts a new traversal epoch over n nodes for an externally driven
// traversal: the caller decides which nodes to Visit and in what order, and
// the scratch supplies the epoch-stamped visited set, distances, positions
// and visit order. This is the entry point multi-source traversals with
// custom frontier schedules (e.g. the shifted-start decomposition in
// internal/decomp) build on, sharing the no-clearing epoch machinery of
// BFSWithin.
func (s *BFSScratch) Begin(n int) { s.begin(n) }

// Visit marks v visited at distance d in the current epoch and appends it to
// the visit order. Visiting an already-visited node corrupts the order; the
// caller must check Visited first.
func (s *BFSScratch) Visit(v, d int) { s.visit(int32(v), int32(d)) }

// Visited reports whether v has been visited in the current epoch.
func (s *BFSScratch) Visited(v int) bool {
	return v >= 0 && v < len(s.stamp) && s.stamp[v] == s.epoch
}

// Order returns the nodes visited in the current epoch, in visit order. The
// slice is owned by the scratch: it is valid until the next Begin/traversal
// and grows as the caller Visits more nodes (re-slice after each Visit
// batch).
func (s *BFSScratch) Order() []int32 { return s.order }

// BFSWithin runs a breadth-first traversal from v truncated at radius r and
// returns the nodes at distance <= r in BFS order (v first). A negative r
// means unbounded (a full-component traversal). Distances and visit
// positions of the returned nodes are available from the scratch until its
// next traversal; the returned slice is owned by the scratch and is likewise
// valid only until the next traversal.
//
// Work is O(|ball| + edges inside the ball), independent of the graph size:
// this is the bounded counterpart of BFSFrom that the view engine is built
// on.
func (g *Graph) BFSWithin(v, r int, s *BFSScratch) []int32 {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: BFSWithin source %d out of range [0,%d)", v, g.n))
	}
	csr := g.Snapshot()
	s.begin(g.n)
	s.visit(int32(v), 0)
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		if r >= 0 && int(du) == r {
			continue
		}
		for _, w := range csr.Neighbors(int(u)) {
			if s.stamp[w] != s.epoch {
				s.visit(w, du+1)
			}
		}
	}
	return s.order
}

// NearestSources runs one breadth-first traversal from all sources at once,
// truncated at radius r (negative means unbounded), and returns the reached
// nodes in visit order, as a slice owned by the scratch. Each reached node's
// distance to its nearest source is available from Dist and its owner from
// Owner: the index into sources of the first source to claim it. Sources are
// queued in list order (a source listed twice keeps its first index), so
// every distance layer of the FIFO queue stays grouped by owner, and a node's
// owner is the earliest listed of its nearest sources. With the sources
// listed in ID order, that is the nearest source with ties toward the
// smaller ID: a Voronoi assignment in one O(ball) pass.
//
// It walks the adjacency lists rather than a CSR snapshot, which a graph
// rebuilt for every view would have to allocate afresh.
func (g *Graph) NearestSources(sources []int, r int, s *BFSScratch) []int32 {
	s.begin(g.n)
	if len(s.owner) < len(s.stamp) {
		s.owner = make([]int32, len(s.stamp))
	}
	for i, v := range sources {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: NearestSources source %d out of range [0,%d)", v, g.n))
		}
		if s.stamp[v] != s.epoch {
			s.visit(int32(v), 0)
			s.owner[v] = int32(i)
		}
	}
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		if r >= 0 && int(du) >= r {
			continue
		}
		for _, w := range g.adj[u] {
			if s.stamp[w] != s.epoch {
				s.visit(int32(w), du+1)
				s.owner[w] = s.owner[u]
			}
		}
	}
	return s.order
}

// Owner returns the index into the sources of the most recent NearestSources
// traversal of the source that claimed v, or -1 if v was not reached. After
// any other traversal its value is meaningless.
func (s *BFSScratch) Owner(v int) int {
	if !s.Visited(v) || v >= len(s.owner) {
		return -1
	}
	return int(s.owner[v])
}

// scratchPool supplies BFSScratch instances to the allocation-free
// convenience wrappers (Ball, Sphere, Dist, ...) so that callers without a
// per-worker scratch still avoid per-call map and array allocations.
var scratchPool = sync.Pool{New: func() any { return &BFSScratch{} }}
