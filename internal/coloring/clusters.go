package coloring

import (
	"fmt"
	"math/bits"

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
// smaller ID), returning the cluster index per node (-1 where no center
// reaches). centers must be in ID order, as GreedyRulingSet returns them.
func voronoi(g *graph.Graph, centers []int) []int {
	cluster := make([]int, g.N())
	for v := range cluster {
		cluster[v] = -1
	}
	var s graph.BFSScratch
	for _, v := range g.NearestSources(centers, -1, &s) {
		cluster[v] = s.Owner(int(v))
	}
	return cluster
}

// innerColoring colors the members of one cluster greedily by ID within
// the induced subgraph, with colors 1..Δ+1, and returns the colors by node
// (0 off the cluster). It sorts members into ID order.
func innerColoring(g *graph.Graph, members []int) []int {
	g.SortByID(members)
	colors := make([]int, g.N())
	nbr := newNeighborColors(g)
	for _, v := range members {
		colors[v] = nbr.smallestMissing(g, colors, v)
	}
	return colors
}

// EncodeVar implements core.VarSchema.
func (c ClusterColoringStage) EncodeVar(g *graph.Graph, _ []*lcl.Solution) (core.VarAdvice, error) {
	if c.CoverRadius < 1 {
		return nil, fmt.Errorf("coloring: cluster cover radius must be >= 1, got %d", c.CoverRadius)
	}
	centers := g.GreedyRulingSet(g.NodesByID(), c.CoverRadius)
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

// colorClusterGraph properly colors the contracted cluster graph greedily
// by center ID; centers are in ID order.
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
	colors := make([]int, len(centers))
	for ci := range centers {
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
// color from its view. It reads the whole ball, so it materializes the
// view first, and assigns every view node to its nearest center in one
// multi-source BFS.
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
	// Nearest center by view distances (the view is large enough that
	// these match graph distances for the relevant nodes), ties toward the
	// smaller ID.
	vg.SortByID(centers)
	var s graph.BFSScratch
	reached := vg.NearestSources(centers, -1, &s)
	my := s.Owner(view.Center)
	if my == -1 {
		return fmt.Errorf("could not settle cluster membership")
	}
	clusterColor := int(view.Advice[centers[my]].Uint()) + 1

	// Members of my cluster among visible nodes: nodes within CoverRadius
	// of my center whose nearest visible center is mine. They have all
	// their candidate centers within 2*CoverRadius of my center, i.e.
	// within 3*CoverRadius of me — visible.
	var members []int
	for _, u := range reached {
		if i := int(u); s.Owner(i) == my && s.Dist(i) <= c.CoverRadius {
			members = append(members, i)
		}
	}
	innerColor := innerColoring(vg, members)[view.Center]
	if innerColor == 0 {
		return fmt.Errorf("center not a member of its own cluster")
	}
	return (clusterColor-1)*(delta+1) + innerColor
}
