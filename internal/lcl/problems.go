package lcl

import (
	"fmt"

	"localadvice/internal/graph"
)

// Orientation edge labels, shared by the orientation-flavored LCLs below:
// an edge {U, V} with U < V labeled TowardV is oriented U -> V, and labeled
// TowardU it is oriented V -> U.
const (
	TowardV = 1
	TowardU = 2
)

// OutDegree returns the out-degree of v under the orientation labels of sol.
// Unset edges are not counted.
func OutDegree(g *graph.Graph, v int, sol *Solution) int {
	out := 0
	for _, e := range g.IncidentEdges(v) {
		ed := g.Edge(e)
		l := sol.Edge[e]
		if l == TowardV && ed.U == v || l == TowardU && ed.V == v {
			out++
		}
	}
	return out
}

// InDegree returns the in-degree of v under the orientation labels of sol.
func InDegree(g *graph.Graph, v int, sol *Solution) int {
	in := 0
	for _, e := range g.IncidentEdges(v) {
		ed := g.Edge(e)
		l := sol.Edge[e]
		if l == TowardV && ed.V == v || l == TowardU && ed.U == v {
			in++
		}
	}
	return in
}

// Coloring is the proper vertex K-coloring LCL (labels 1..K, radius 1).
type Coloring struct{ K int }

var _ Problem = Coloring{}

func (c Coloring) Name() string        { return fmt.Sprintf("%d-coloring", c.K) }
func (c Coloring) Radius() int         { return 1 }
func (c Coloring) NodeAlphabet() []int { return alphabet(c.K) }
func (c Coloring) EdgeAlphabet() []int { return nil }

func (c Coloring) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	lv := sol.Node[v]
	if lv == Unset {
		return nil
	}
	for _, w := range g.Neighbors(v) {
		if sol.Node[w] == lv {
			return violated("nodes %d and %d share color %d", v, w, lv)
		}
	}
	return nil
}

// MIS is the maximal independent set LCL: label 1 = in the set, 2 = out.
type MIS struct{}

var _ Problem = MIS{}

func (MIS) Name() string        { return "mis" }
func (MIS) Radius() int         { return 1 }
func (MIS) NodeAlphabet() []int { return []int{1, 2} }
func (MIS) EdgeAlphabet() []int { return nil }

func (MIS) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	lv := sol.Node[v]
	if lv == Unset {
		return nil
	}
	if lv == 1 {
		for _, w := range g.Neighbors(v) {
			if sol.Node[w] == 1 {
				return violated("adjacent nodes %d and %d both in the set", v, w)
			}
		}
		return nil
	}
	// lv == 2: some neighbor must be in the set — but only report a
	// violation once the whole neighborhood is decided.
	anyUnset := false
	for _, w := range g.Neighbors(v) {
		switch sol.Node[w] {
		case 1:
			return nil
		case Unset:
			anyUnset = true
		}
	}
	if anyUnset {
		return nil
	}
	return violated("node %d is out of the set with no in-set neighbor", v)
}

// MaximalMatching is the maximal matching LCL: edge label 1 = matched,
// 2 = unmatched.
type MaximalMatching struct{}

var _ Problem = MaximalMatching{}

func (MaximalMatching) Name() string        { return "maximal-matching" }
func (MaximalMatching) Radius() int         { return 1 }
func (MaximalMatching) NodeAlphabet() []int { return nil }
func (MaximalMatching) EdgeAlphabet() []int { return []int{1, 2} }

func (MaximalMatching) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	matched := 0
	anyUnset := false
	for _, e := range g.IncidentEdges(v) {
		switch sol.Edge[e] {
		case 1:
			matched++
		case Unset:
			anyUnset = true
		}
	}
	if matched > 1 {
		return violated("node %d has %d matched edges", v, matched)
	}
	if matched == 1 || anyUnset {
		return nil
	}
	// v is unmatched: every neighbor must be matched (else the edge to it
	// could be added). Only a violation when the neighbor's incident edges
	// are all decided.
	for i, w := range g.Neighbors(v) {
		_ = i
		wMatched := false
		wUnset := false
		for _, e := range g.IncidentEdges(w) {
			switch sol.Edge[e] {
			case 1:
				wMatched = true
			case Unset:
				wUnset = true
			}
		}
		if !wMatched && !wUnset {
			return violated("edge {%d,%d} could be added to the matching", v, w)
		}
	}
	return nil
}

// SinklessOrientation requires every node of degree >= 3 to have at least
// one outgoing edge.
type SinklessOrientation struct{}

var _ Problem = SinklessOrientation{}

func (SinklessOrientation) Name() string        { return "sinkless-orientation" }
func (SinklessOrientation) Radius() int         { return 1 }
func (SinklessOrientation) NodeAlphabet() []int { return nil }
func (SinklessOrientation) EdgeAlphabet() []int { return []int{TowardV, TowardU} }

func (SinklessOrientation) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	if g.Degree(v) < 3 {
		return nil
	}
	anyUnset := false
	for _, e := range g.IncidentEdges(v) {
		if sol.Edge[e] == Unset {
			anyUnset = true
		}
	}
	if anyUnset {
		return nil
	}
	if OutDegree(g, v, sol) == 0 {
		return violated("node %d is a sink", v)
	}
	return nil
}

// BalancedOrientation is the almost-balanced orientation LCL of Section 5:
// |indegree - outdegree| <= 1 at every node (so = 0 at even-degree nodes).
type BalancedOrientation struct{}

var _ Problem = BalancedOrientation{}

func (BalancedOrientation) Name() string        { return "balanced-orientation" }
func (BalancedOrientation) Radius() int         { return 1 }
func (BalancedOrientation) NodeAlphabet() []int { return nil }
func (BalancedOrientation) EdgeAlphabet() []int { return []int{TowardV, TowardU} }

func (BalancedOrientation) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	for _, e := range g.IncidentEdges(v) {
		if sol.Edge[e] == Unset {
			return nil
		}
	}
	in, out := InDegree(g, v, sol), OutDegree(g, v, sol)
	diff := in - out
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		return violated("node %d has indegree %d, outdegree %d", v, in, out)
	}
	return nil
}

// EdgeColoring is the proper K-edge-coloring LCL: incident edges get
// distinct labels 1..K.
type EdgeColoring struct{ K int }

var _ Problem = EdgeColoring{}

func (c EdgeColoring) Name() string        { return fmt.Sprintf("%d-edge-coloring", c.K) }
func (c EdgeColoring) Radius() int         { return 1 }
func (c EdgeColoring) NodeAlphabet() []int { return nil }
func (c EdgeColoring) EdgeAlphabet() []int { return alphabet(c.K) }

func (c EdgeColoring) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	inc := g.IncidentEdges(v)
	for i, e := range inc {
		l := sol.Edge[e]
		if l == Unset {
			continue
		}
		for _, other := range inc[:i] {
			if sol.Edge[other] == l {
				return violated("edges %d and %d at node %d share color %d", other, e, v, l)
			}
		}
	}
	return nil
}

// Splitting is the Section 5 splitting LCL on even-degree graphs: a red/blue
// (1/2) edge coloring with equally many red and blue edges at every node.
type Splitting struct{}

var _ Problem = Splitting{}

func (Splitting) Name() string        { return "splitting" }
func (Splitting) Radius() int         { return 1 }
func (Splitting) NodeAlphabet() []int { return nil }
func (Splitting) EdgeAlphabet() []int { return []int{1, 2} }

func (Splitting) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	red, blue := 0, 0
	for _, e := range g.IncidentEdges(v) {
		switch sol.Edge[e] {
		case 1:
			red++
		case 2:
			blue++
		case Unset:
			return nil
		}
	}
	if red != blue {
		return violated("node %d has %d red and %d blue edges", v, red, blue)
	}
	return nil
}

// WeakColoring requires every non-isolated node to have at least one
// neighbor with a different label (labels 1..K). A classic "easy" LCL used
// as a control in experiments.
type WeakColoring struct{ K int }

var _ Problem = WeakColoring{}

func (c WeakColoring) Name() string        { return fmt.Sprintf("weak-%d-coloring", c.K) }
func (c WeakColoring) Radius() int         { return 1 }
func (c WeakColoring) NodeAlphabet() []int { return alphabet(c.K) }
func (c WeakColoring) EdgeAlphabet() []int { return nil }

func (c WeakColoring) CheckNode(g *graph.Graph, v int, sol *Solution) error {
	if g.Degree(v) == 0 || sol.Node[v] == Unset {
		return nil
	}
	anyUnset := false
	for _, w := range g.Neighbors(v) {
		if sol.Node[w] == Unset {
			anyUnset = true
		} else if sol.Node[w] != sol.Node[v] {
			return nil
		}
	}
	if anyUnset {
		return nil
	}
	return violated("node %d has all neighbors with its own label %d", v, sol.Node[v])
}
