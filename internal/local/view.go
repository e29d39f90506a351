package local

import (
	"fmt"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
)

// View is the radius-T view of a node: everything a node can learn in T
// LOCAL rounds. It holds the nodes at distance <= T and every edge with an
// endpoint at distance <= T-1 (an edge between two nodes both at distance
// exactly T is not learned in T rounds), plus IDs, advice, true degrees and
// the global parameters.
//
// A view reads a graph it does not copy, and node indices are that graph's
// indices: the host graph's on RunBall, an assembled ball's on the message
// engines and BuildView. Algorithms must identify nodes by ID only, and
// reach nodes only from Center through the methods (Neighbors,
// IncidentEdges, Other, Edge, Nodes). Every method panics when handed a
// node it has not handed out, so in particular on a node outside the ball.
//
// The view grows as far as it is read: a breadth-first search from the
// center stamps one more layer when an algorithm asks for the neighbors of
// a node on the outermost stamped layer, and Nodes stamps the whole ball.
// A T-round algorithm's output is a function of the part of the ball it
// reads, so the lazy growth cannot change it; a decoder that reads only
// near the center pays only for what it reads.
type View struct {
	// Center is the index of the viewing node.
	Center int
	// Advice[i] is node i's advice string, indexed like the view's nodes:
	// the host's advice on RunBall (or all-empty strings when the run has
	// none), the ball's own on the other engines. Only entries of nodes in
	// the ball may be read.
	Advice []bitstr.String
	// Radius is the view radius T.
	Radius int
	// N and Delta are the global parameters known to every node.
	N     int
	Delta int

	g       *graph.Graph
	trueDeg []int // true degrees by node index; nil means g's own degrees
	bfs     *graph.BFSScratch
	head    int // BFS order position of the first node not yet expanded
	depth   int // every node within distance depth of the center is stamped

	// nbrs and incs hold the visible adjacency of distance-T nodes,
	// appended per call so earlier results stay valid during the view.
	nbrs, incs []int

	ball *Ball        // the materialized ball, once built
	b    *viewBuilder // the builder whose Ball Materialize fills; nil until needed
}

// reset points v at the radius-T view of center in g, with nothing beyond
// the center stamped yet.
func (v *View) reset(g *graph.Graph, trueDeg []int, advice []bitstr.String, center, radius, n, delta int) {
	v.g, v.trueDeg, v.Advice = g, trueDeg, advice
	v.Center, v.Radius, v.N, v.Delta = center, radius, n, delta
	v.bfs.Begin(g.N())
	v.bfs.Visit(center, 0)
	v.head, v.depth = 0, 0
	v.nbrs, v.incs = v.nbrs[:0], v.incs[:0]
	v.ball = nil
}

// grow stamps the next BFS layer: every unstamped neighbor of the nodes at
// distance depth. BFS order stays layer-monotone, so the order equals that
// of a full bounded BFS (graph.BFSWithin) from the center.
func (v *View) grow() {
	next := v.depth + 1
	for end := len(v.bfs.Order()); v.head < end; v.head++ {
		u := int(v.bfs.Order()[v.head])
		for _, w := range v.g.Neighbors(u) {
			if !v.bfs.Visited(w) {
				v.bfs.Visit(w, next)
			}
		}
	}
	v.depth = next
}

// reached panics unless the view has reached u. Every node Center,
// Neighbors, Other, Edge and Nodes hand out has been reached, and no node
// outside the ball ever is.
func (v *View) reached(u int) {
	if !v.bfs.Visited(u) {
		panic(unreachedNode{node: u, center: v.Center, radius: v.Radius})
	}
}

// unreachedNode is the panic value of a View method handed a node the view
// has not reached. It is formatted only when printed, which keeps reached
// small enough to inline into every method.
type unreachedNode struct{ node, center, radius int }

func (e unreachedNode) Error() string {
	return fmt.Sprintf("local: node %d has not been reached in the radius-%d view of node %d", e.node, e.radius, e.center)
}

// interior reports whether u (in the ball) sees all its edges, which holds
// below distance T; it stamps u's neighbors first when u is on the
// outermost stamped layer.
func (v *View) interior(u int) bool {
	d := v.Dist(u)
	if d >= v.Radius {
		return false
	}
	if d == v.depth {
		v.grow()
	}
	return true
}

// innerNeighbor reports whether w is at distance T-1, the only neighbors a
// distance-T node has edges to in the view.
func (v *View) innerNeighbor(w int) bool {
	return v.Radius > 0 && v.bfs.Dist(w) == v.Radius-1
}

// boundary appends the visible adjacency of a distance-T node u (its edges
// to distance T-1) to the view's boundary buffers and returns it.
func (v *View) boundary(u int) (nbrs, incs []int) {
	start := len(v.nbrs)
	inc := v.g.IncidentEdges(u)
	for i, w := range v.g.Neighbors(u) {
		if v.innerNeighbor(w) {
			v.nbrs = append(v.nbrs, w)
			v.incs = append(v.incs, inc[i])
		}
	}
	end := len(v.nbrs)
	return v.nbrs[start:end:end], v.incs[start:end:end]
}

// ID returns node u's identifier.
func (v *View) ID(u int) int64 {
	v.reached(u)
	return v.g.ID(u)
}

// Dist returns node u's distance from the center (in the host graph).
func (v *View) Dist(u int) int {
	v.reached(u)
	return v.bfs.Dist(u)
}

// TrueDegree returns node u's degree in the host graph; a node at distance
// T shows fewer edges (Degree).
func (v *View) TrueDegree(u int) int {
	v.reached(u)
	if v.trueDeg != nil {
		return v.trueDeg[u]
	}
	return v.g.Degree(u)
}

// Neighbors returns the visible neighbors of u. The slice must not be
// modified and is valid only while the view is.
func (v *View) Neighbors(u int) []int {
	if v.interior(u) {
		return v.g.Neighbors(u)
	}
	nbrs, _ := v.boundary(u)
	return nbrs
}

// IncidentEdges returns the visible edges of u, aligned with Neighbors(u):
// IncidentEdges(u)[i] is the edge to Neighbors(u)[i]. The slice must not be
// modified and is valid only while the view is.
func (v *View) IncidentEdges(u int) []int {
	if v.interior(u) {
		return v.g.IncidentEdges(u)
	}
	_, incs := v.boundary(u)
	return incs
}

// Degree returns the number of visible edges of u: TrueDegree below
// distance T, at most that at distance T.
func (v *View) Degree(u int) int {
	if v.Dist(u) < v.Radius {
		return v.g.Degree(u)
	}
	deg := 0
	for _, w := range v.g.Neighbors(u) {
		if v.innerNeighbor(w) {
			deg++
		}
	}
	return deg
}

// Other returns the endpoint of edge e that is not u.
func (v *View) Other(e, u int) int {
	v.reached(u)
	return v.g.Other(e, u)
}

// Edge returns the endpoints of edge e.
func (v *View) Edge(e int) graph.Edge {
	ed := v.g.Edge(e)
	v.reached(ed.U)
	v.reached(ed.V)
	return ed
}

// Nodes returns every node of the ball in BFS order from the center
// (nondecreasing distance, Center first). The slice is owned by the view:
// it must not be modified and is valid only while the view is.
func (v *View) Nodes() []int32 {
	for v.depth < v.Radius {
		v.grow()
	}
	return v.bfs.Order()
}

// stamped returns the number of nodes the view has stamped so far.
func (v *View) stamped() int { return len(v.bfs.Order()) }

// Ball is a view materialized as a graph of its own, for decoders that
// read the whole ball: G holds exactly the visible nodes and edges, and
// node i of G is the i-th node of the view's BFS order, so Center is 0.
type Ball struct {
	// G is the visible subgraph; node IDs are preserved from the host.
	G *graph.Graph
	// Center is the index of the viewing node within G.
	Center int
	// Dist[i] is the distance from Center to node i in the host graph.
	Dist []int
	// Advice[i] is node i's advice string.
	Advice []bitstr.String
	// TrueDegree[i] is node i's degree in the host graph.
	TrueDegree []int
	// Radius, N and Delta are the view's.
	Radius int
	N      int
	Delta  int
}

// Materialize returns the view's whole ball as a Ball, built in the view's
// own buffer: on RunBall's views the worker's, rebuilt for each view and
// valid only while the view is. A view from BuildView returns the Ball it
// was built from.
func (v *View) Materialize() *Ball {
	if v.ball == nil {
		if v.b == nil {
			v.b = newViewBuilder()
		}
		v.b.fill(&v.b.ball, v)
		v.ball = &v.b.ball
	}
	return v.ball
}

// BallAlgorithm is a LOCAL algorithm in view form: a function of the
// radius-T view of each node. The returned value is the node's output.
//
// The view is valid only during the call: RunBall resets one View per
// worker for the next node, so neither the View, its Ball, nor any slice
// reached through them (Neighbors, Nodes, Ball.Dist, Ball.G.Edges, ...)
// may be kept or returned. Outputs must be values computed from the view:
// ints, fresh slices or maps, bitstr.String values (which share the host
// advice's storage, not the view's), or errors.
type BallAlgorithm func(view *View) any

// BuildView constructs the radius-T view of node v in g under advice as a
// view of its own: it materializes the ball (the work RunBall's views skip
// until a decoder asks) and wraps it, so the result may be retained. Its
// node indices are the Ball's, not g's. It is the oracle RunBall's views
// are tested against.
func BuildView(g *graph.Graph, advice Advice, v, radius int) *View {
	mustValidateAdvice(g, advice)
	b := builderPool.Get().(*viewBuilder)
	defer builderPool.Put(b)
	b.view.reset(g, nil, advice, v, radius, g.N(), g.Snapshot().MaxDegree())
	ball := &Ball{G: new(graph.Graph)}
	b.fill(ball, &b.view)
	view := ballView(ball.G, ball.TrueDegree, ball.Advice, ball.Center, radius, ball.N, ball.Delta)
	view.ball = ball
	return view
}

// ballView returns a view of center over g, a graph holding one assembled
// ball, with a BFS scratch of its own.
func ballView(g *graph.Graph, trueDeg []int, advice []bitstr.String, center, radius, n, delta int) *View {
	view := &View{bfs: new(graph.BFSScratch)}
	view.reset(g, trueDeg, advice, center, radius, n, delta)
	return view
}

// GatherProtocol is a message-engine protocol in which every node floods its
// (ID, degree, advice, adjacency-so-far) for Radius rounds and then applies
// Decide to the assembled view. RunDecider wraps a decide function in it to
// run view-based decoders on the message engines; the engine-equivalence
// tests use it to check that every engine hands out the same views.
type GatherProtocol struct {
	Radius int
	Decide func(view *View) any
}

var _ Protocol = (*GatherProtocol)(nil)

// gatherFact is one node's self-description, flooded through the graph.
type gatherFact struct {
	id        int64
	degree    int
	advice    bitstr.String
	neighbors []int64 // IDs of neighbors, discovered round by round
}

type gatherMachine struct {
	p     *GatherProtocol
	info  NodeInfo
	known map[int64]*gatherFact
	out   any
}

// NewMachine implements Protocol.
func (p *GatherProtocol) NewMachine(info NodeInfo) Machine {
	m := &gatherMachine{p: p, info: info, known: make(map[int64]*gatherFact)}
	m.known[info.ID] = &gatherFact{id: info.ID, degree: info.Degree, advice: info.Advice}
	return m
}

func (m *gatherMachine) Round(round int, inbox []Message) ([]Message, bool) {
	// Merge incoming knowledge.
	for _, msg := range inbox {
		if msg == nil {
			continue
		}
		facts := msg.([]gatherFact)
		for i := range facts {
			f := facts[i]
			if have, ok := m.known[f.id]; ok {
				have.neighbors = mergeIDs(have.neighbors, f.neighbors)
			} else {
				cp := f
				cp.neighbors = append([]int64(nil), f.neighbors...)
				m.known[cp.id] = &cp
			}
		}
		// The sender is a neighbor: its first fact is itself.
		if len(facts) > 0 {
			self := m.known[m.info.ID]
			self.neighbors = mergeIDs(self.neighbors, []int64{facts[0].id})
			nbr := m.known[facts[0].id]
			nbr.neighbors = mergeIDs(nbr.neighbors, []int64{m.info.ID})
		}
	}
	if round > m.p.Radius {
		view, err := m.assembleView()
		if err != nil {
			// Surface assembly failures (e.g. duplicate IDs flooded by a
			// corrupted neighborhood) as this node's output instead of
			// panicking: callers inspect outputs for error values.
			m.out = err
			return nil, true
		}
		m.out = m.p.Decide(view)
		return nil, true
	}
	// Flood everything known; own fact first so receivers learn who sent.
	facts := make([]gatherFact, 0, len(m.known))
	facts = append(facts, *m.known[m.info.ID])
	for id, f := range m.known {
		if id != m.info.ID {
			facts = append(facts, *f)
		}
	}
	outbox := make([]Message, m.info.Degree)
	for i := range outbox {
		outbox[i] = facts
	}
	return outbox, false
}

func (m *gatherMachine) Output() any { return m.out }

// assembleView builds a graph from the known facts, indexed by ascending
// ID, and returns the view of this node over it.
func (m *gatherMachine) assembleView() (*View, error) {
	ids := make([]int64, 0, len(m.known))
	for id := range m.known {
		ids = append(ids, id)
	}
	sortIDs(ids)
	idx := make(map[int64]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	g := graph.New(len(ids))
	if err := g.SetIDs(ids); err != nil {
		return nil, fmt.Errorf("local: gather produced duplicate IDs: %v: %w", err, fault.ErrDetectedCorruption)
	}
	for id, f := range m.known {
		for _, nid := range f.neighbors {
			j, ok := idx[nid]
			if !ok {
				continue
			}
			i := idx[id]
			if i < j && !g.HasEdge(i, j) {
				g.MustAddEdge(i, j)
			}
		}
	}
	advice := make([]bitstr.String, len(ids))
	trueDeg := make([]int, len(ids))
	for i, id := range ids {
		advice[i] = m.known[id].advice
		trueDeg[i] = m.known[id].degree
	}
	return ballView(g, trueDeg, advice, idx[m.info.ID], m.p.Radius, m.info.N, m.info.Delta), nil
}

func mergeIDs(dst, src []int64) []int64 {
	for _, s := range src {
		found := false
		for _, d := range dst {
			if d == s {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, s)
		}
	}
	return dst
}

func sortIDs(ids []int64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
