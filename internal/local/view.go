package local

import (
	"fmt"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
)

// View is the radius-T view of a node: everything a node can learn in T
// LOCAL rounds. It contains the subgraph on the nodes at distance <= T,
// excluding edges between two nodes both at distance exactly T (a node does
// not learn those in T rounds), plus IDs, advice, true degrees, and global
// parameters. Node indices inside a View are local to the view; algorithms
// must identify nodes by ID only.
type View struct {
	// G is the visible subgraph; node IDs are preserved from the host graph.
	G *graph.Graph
	// Center is the index of the viewing node within G.
	Center int
	// Dist[i] is the distance from Center to node i within the host graph
	// (equal to the distance in G for dist < Radius).
	Dist []int
	// Advice[i] is node i's advice string.
	Advice []bitstr.String
	// TrueDegree[i] is node i's degree in the host graph (boundary nodes
	// show fewer edges inside the view).
	TrueDegree []int
	// Radius is the view radius T.
	Radius int
	// N and Delta are the global parameters known to every node.
	N     int
	Delta int
}

// NodeByID returns the view-local index of the node with the given ID, or
// -1 if it is not visible.
func (v *View) NodeByID(id int64) int { return v.G.NodeByID(id) }

// BallAlgorithm is a LOCAL algorithm in view form: a function of the
// radius-T view of each node. The returned value is the node's output.
//
// The view is valid only during the call: RunBall rebuilds one View per
// worker in place for the next node, so neither the View, its G, nor any
// slice reached through them (Dist, Advice, TrueDegree, G.Neighbors,
// G.Edges, ...) may be kept or returned. Outputs must be values computed
// from the view: ints, fresh slices or maps, bitstr.String values (which
// share the host advice's storage, not the view's), or errors.
type BallAlgorithm func(view *View) any

// BuildView constructs the radius-T view of node v in g under advice. It is
// the convenience form of ViewBuilder.BuildView using pooled scratch; loops
// that build many views should hold their own ViewBuilder.
func BuildView(g *graph.Graph, advice Advice, v, radius int) *View {
	b := builderPool.Get().(*ViewBuilder)
	defer builderPool.Put(b)
	return b.BuildView(g, advice, v, radius)
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

func (m *gatherMachine) assembleView() (*View, error) {
	// Build a graph from known facts; distances computed from the center.
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
	center := idx[m.info.ID]
	view := &View{
		G:          g,
		Center:     center,
		Dist:       g.BFSFrom(center),
		Advice:     make([]bitstr.String, len(ids)),
		TrueDegree: make([]int, len(ids)),
		Radius:     m.p.Radius,
		N:          m.info.N,
		Delta:      m.info.Delta,
	}
	for i, id := range ids {
		view.Advice[i] = m.known[id].advice
		view.TrueDegree[i] = m.known[id].degree
	}
	return view, nil
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
