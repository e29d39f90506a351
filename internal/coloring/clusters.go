package coloring

import (
	"fmt"
	"math/bits"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// UnboundedColoring is the "proper coloring, any number of colors" problem
// used by intermediate pipeline stages (the O(Δ²)-coloring of Section 6.1
// before reduction). Labels are positive integers; only properness is
// checked.
type UnboundedColoring struct{}

var _ lcl.Problem = UnboundedColoring{}

// Name implements lcl.Problem.
func (UnboundedColoring) Name() string { return "proper-coloring" }

// Radius implements lcl.Problem.
func (UnboundedColoring) Radius() int { return 1 }

// NodeAlphabet implements lcl.Problem; nil because the label set is
// unbounded — CheckNode does the validation instead.
func (UnboundedColoring) NodeAlphabet() []int { return nil }

// EdgeAlphabet implements lcl.Problem.
func (UnboundedColoring) EdgeAlphabet() []int { return nil }

// CheckNode implements lcl.Problem.
func (UnboundedColoring) CheckNode(g *graph.Graph, v int, sol *lcl.Solution) error {
	if sol.Node[v] == lcl.Unset || sol.Node[v] < 1 {
		return fmt.Errorf("node %d has invalid color %d", v, sol.Node[v])
	}
	for _, w := range g.Neighbors(v) {
		if sol.Node[w] == sol.Node[v] {
			return fmt.Errorf("nodes %d and %d share color %d", v, w, sol.Node[v])
		}
	}
	return nil
}

// ClusterColoringStage is the first stage of the Section 6 pipeline
// (Lemma 6.3): a proper coloring with f(Δ) colors obtained from a Voronoi
// clustering around a ruling set. The advice marks each cluster center with
// the color of its cluster in a proper coloring of the cluster graph; each
// center colors its own cluster greedily and combines (cluster color, inner
// color) into the node color.
type ClusterColoringStage struct {
	// CoverRadius is the covering radius of the ruling set of centers; it
	// bounds cluster radii and is the schema's sparsity knob.
	CoverRadius int
}

var _ core.VarSchema = ClusterColoringStage{}

// Name implements core.VarSchema.
func (ClusterColoringStage) Name() string { return "cluster-coloring" }

// Problem implements core.VarSchema.
func (ClusterColoringStage) Problem() lcl.Problem { return UnboundedColoring{} }

// DecodeRadius is the LOCAL radius of the decoder: a node needs its own
// cluster (radius CoverRadius), the full membership of that cluster
// (another CoverRadius to see competing centers), the cluster topology, and
// one extra hop so that all geodesics used for the distance comparisons lie
// fully inside the view.
func (c ClusterColoringStage) DecodeRadius() int { return 3*c.CoverRadius + 1 }

// voronoi assigns every node to its nearest center (ties toward the
// smaller ID), returning the cluster index per node.
func voronoi(g *graph.Graph, centers []int) []int {
	cluster := make([]int, g.N())
	bestDist := make([]int, g.N())
	for v := range cluster {
		cluster[v] = -1
	}
	for ci, c := range centers {
		for v, d := range g.BFSFrom(c) {
			if d == -1 {
				continue
			}
			switch {
			case cluster[v] == -1,
				d < bestDist[v],
				d == bestDist[v] && g.ID(c) < g.ID(centers[cluster[v]]):
				cluster[v] = ci
				bestDist[v] = d
			}
		}
	}
	return cluster
}

// innerColoring colors the nodes of one cluster greedily by ID within the
// induced subgraph, with colors 1..Δ+1.
func innerColoring(g *graph.Graph, members []int) map[int]int {
	sorted := append([]int(nil), members...)
	sort.Slice(sorted, func(a, b int) bool { return g.ID(sorted[a]) < g.ID(sorted[b]) })
	inCluster := make(map[int]bool, len(members))
	for _, v := range members {
		inCluster[v] = true
	}
	colors := make(map[int]int, len(members))
	for _, v := range sorted {
		used := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			if inCluster[w] {
				used[colors[w]] = true
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// EncodeVar implements core.VarSchema.
func (c ClusterColoringStage) EncodeVar(g *graph.Graph, _ []*lcl.Solution) (core.VarAdvice, error) {
	if c.CoverRadius < 1 {
		return nil, fmt.Errorf("coloring: cluster cover radius must be >= 1, got %d", c.CoverRadius)
	}
	centers := greedyCover(g, c.CoverRadius)
	cluster := voronoi(g, centers)
	// Proper coloring of the cluster graph, greedily by center ID.
	clusterColors, err := colorClusterGraph(g, centers, cluster)
	if err != nil {
		return nil, err
	}
	va := make(core.VarAdvice, len(centers))
	for ci, center := range centers {
		// Payload: the cluster color, minus one, in a fixed-width binary
		// encoding wide enough for all cluster colors (so all payloads
		// parse the same way). Width is the global max; every payload is
		// at least one bit.
		width := bits.Len(uint(maxInt(clusterColors) - 1))
		if width == 0 {
			width = 1
		}
		va[center] = bitstr.FromUint(uint64(clusterColors[ci]-1), width)
	}
	return va, nil
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// greedyCover returns a set with pairwise distance >= cover+1 and covering
// radius cover, greedily by ID.
func greedyCover(g *graph.Graph, cover int) []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })
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

// colorClusterGraph properly colors the contracted cluster graph greedily
// by center ID.
func colorClusterGraph(g *graph.Graph, centers []int, cluster []int) ([]int, error) {
	adj := make([]map[int]bool, len(centers))
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for _, e := range g.Edges() {
		a, b := cluster[e.U], cluster[e.V]
		if a != b {
			adj[a][b] = true
			adj[b][a] = true
		}
	}
	order := make([]int, len(centers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.ID(centers[order[a]]) < g.ID(centers[order[b]]) })
	colors := make([]int, len(centers))
	for _, ci := range order {
		used := map[int]bool{}
		for cj := range adj[ci] {
			if colors[cj] != 0 {
				used[colors[cj]] = true
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colors[ci] = c
	}
	return colors, nil
}

// DecodeVar implements core.VarSchema.
func (c ClusterColoringStage) DecodeVar(g *graph.Graph, va core.VarAdvice, _ []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	if c.CoverRadius < 1 {
		return nil, local.Stats{}, fmt.Errorf("coloring: cluster cover radius must be >= 1, got %d", c.CoverRadius)
	}
	advice := va.Dense(g.N())
	delta := g.MaxDegree()
	outputs, stats, err := local.RunBall(g, advice, c.DecodeRadius(), func(view *local.View) any {
		return c.decodeNode(view, delta)
	}, local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, fmt.Errorf("coloring: node %d: %w", v, err)
		}
		sol.Node[v] = out.(int)
	}
	return sol, stats, nil
}

// decodeNode computes the center's combined (cluster color, inner color)
// color from its view. It reads the whole ball (every center within
// 2*CoverRadius and a BFS from each candidate member), so it materializes
// the view first.
func (c ClusterColoringStage) decodeNode(lazy *local.View, delta int) any {
	view := lazy.Materialize()
	vg := view.G
	// Centers = advice holders. All centers within 2*CoverRadius are
	// visible, which suffices to settle cluster membership for every node
	// within CoverRadius of the viewing node.
	var centers []int
	for i := 0; i < vg.N(); i++ {
		if view.Advice[i].Len() > 0 {
			centers = append(centers, i)
		}
	}
	if len(centers) == 0 {
		return fmt.Errorf("no cluster center within distance %d", c.DecodeRadius())
	}
	// My cluster: nearest center by view distances (the view is large
	// enough that these match graph distances for the relevant nodes).
	my := c.ownCluster(view, centers)
	if my == -1 {
		return fmt.Errorf("could not settle cluster membership")
	}
	myCenter := centers[my]
	clusterColor := int(view.Advice[myCenter].Uint()) + 1

	// Members of my cluster among visible nodes: nodes whose nearest
	// visible center is mine. Nodes within CoverRadius of my center have
	// all their candidate centers within 2*CoverRadius of my center, i.e.
	// within 3*CoverRadius of me — visible.
	distFromCenter := vg.BFSFrom(myCenter)
	var members []int
	for i := 0; i < vg.N(); i++ {
		if distFromCenter[i] == -1 || distFromCenter[i] > c.CoverRadius {
			continue
		}
		if c.nearestCenter(vg, i, centers) == my {
			members = append(members, i)
		}
	}
	inner := innerColoring(vg, members)
	innerColor, ok := inner[view.Center]
	if !ok {
		return fmt.Errorf("center not a member of its own cluster")
	}
	return (clusterColor-1)*(delta+1) + innerColor
}

// ownCluster returns the index (into centers) of the viewing node's
// cluster, or -1.
func (c ClusterColoringStage) ownCluster(view *local.Ball, centers []int) int {
	return c.nearestCenter(view.G, view.Center, centers)
}

// nearestCenter returns the index of the center nearest to node v in the
// view graph, ties toward the smallest ID; -1 if none reachable.
func (c ClusterColoringStage) nearestCenter(vg *graph.Graph, v int, centers []int) int {
	dist := vg.BFSFrom(v)
	best := -1
	for i, center := range centers {
		d := dist[center]
		if d == -1 {
			continue
		}
		if best == -1 || d < dist[centers[best]] ||
			d == dist[centers[best]] && vg.ID(center) < vg.ID(centers[best]) {
			best = i
		}
	}
	return best
}
