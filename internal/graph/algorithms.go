package graph

import "fmt"

// BFSFrom returns the distance (in edges) from src to every node; unreachable
// nodes get -1. The full n-length result is the only allocation; the
// traversal itself runs on pooled scratch storage.
func (g *Graph) BFSFrom(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	s := scratchPool.Get().(*BFSScratch)
	defer scratchPool.Put(s)
	for _, u := range g.BFSWithin(src, -1, s) {
		dist[u] = int(s.dist[u])
	}
	return dist
}

// Dist returns the distance between u and v, or -1 if disconnected. The
// search runs on scratch storage and stops as soon as v is reached, so the
// cost is O(nodes within dist(u,v)), not O(n+m).
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	s := scratchPool.Get().(*BFSScratch)
	defer scratchPool.Put(s)
	csr := g.Snapshot()
	s.begin(g.n)
	s.visit(int32(u), 0)
	for head := 0; head < len(s.order); head++ {
		x := s.order[head]
		dx := s.dist[x]
		for _, w := range csr.Neighbors(int(x)) {
			if s.stamp[w] != s.epoch {
				if int(w) == v {
					return int(dx) + 1
				}
				s.visit(w, dx+1)
			}
		}
	}
	return -1
}

// Ball returns the node indices at distance <= r from v, in BFS order.
func (g *Graph) Ball(v, r int) []int {
	s := scratchPool.Get().(*BFSScratch)
	defer scratchPool.Put(s)
	order := g.BFSWithin(v, r, s)
	out := make([]int, len(order))
	for i, u := range order {
		out[i] = int(u)
	}
	return out
}

// Components returns, for each node, the index of its connected component,
// along with the number of components. Component indices are assigned in
// order of the smallest node index they contain.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	for v := 0; v < g.n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[u] {
				if comp[w] == -1 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	_, c := g.Components()
	return c <= 1
}

// Diameter returns the largest finite distance between any pair of nodes in
// the same component (the maximum of component diameters). Returns 0 for
// graphs with no edges. One scratch is reused across all n traversals, so
// the total allocation is O(n) regardless of how many sources are scanned.
func (g *Graph) Diameter() int {
	s := scratchPool.Get().(*BFSScratch)
	defer scratchPool.Put(s)
	d := 0
	for v := 0; v < g.n; v++ {
		// BFS visit order is nondecreasing in distance, so the last node of
		// the traversal carries the eccentricity of v.
		order := g.BFSWithin(v, -1, s)
		if ecc := int(s.dist[order[len(order)-1]]); ecc > d {
			d = ecc
		}
	}
	return d
}

// InducedSubgraph returns the subgraph induced by the given node indices,
// preserving node IDs, together with the mapping from new indices to
// original indices.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	idx := make(map[int]int, len(nodes))
	orig := make([]int, len(nodes))
	ids := make([]int64, len(nodes))
	for i, v := range nodes {
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: duplicate node %d in induced subgraph", v))
		}
		idx[v] = i
		orig[i] = v
		ids[i] = g.ids[v]
	}
	var edges []Edge
	for i, v := range nodes {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && i < j {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	return NewFromEdges(ids, edges), orig
}

// Bipartition returns a 2-coloring (values 0/1) of the nodes if the graph is
// bipartite, or ok=false otherwise. Each component is colored starting from
// its smallest node index with side 0.
func (g *Graph) Bipartition() (side []int, ok bool) {
	side = make([]int, g.n)
	for i := range side {
		side[i] = -1
	}
	for v := 0; v < g.n; v++ {
		if side[v] != -1 {
			continue
		}
		side[v] = 0
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[u] {
				if side[w] == -1 {
					side[w] = 1 - side[u]
					queue = append(queue, w)
				} else if side[w] == side[u] {
					return nil, false
				}
			}
		}
	}
	return side, true
}

// GrowthProfile returns, for radii 0..maxR, the maximum over all nodes of
// |N_{<=r}(v)|. Experiments use it to check which families are inside the
// sub-exponential growth regime at the scales tested.
func (g *Graph) GrowthProfile(maxR int) []int {
	out := make([]int, maxR+1)
	s := scratchPool.Get().(*BFSScratch)
	defer scratchPool.Put(s)
	counts := make([]int, maxR+1)
	for v := 0; v < g.n; v++ {
		for r := range counts {
			counts[r] = 0
		}
		for _, u := range g.BFSWithin(v, maxR, s) {
			counts[s.dist[u]]++
		}
		cum := 0
		for r := 0; r <= maxR; r++ {
			cum += counts[r]
			if cum > out[r] {
				out[r] = cum
			}
		}
	}
	return out
}
