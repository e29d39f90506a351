package local

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
)

// maxIDProtocol computes, at each node, the maximum ID within the given
// radius via per-round flooding; a simple reference protocol.
type maxIDProtocol struct{ radius int }

type maxIDMachine struct {
	radius int
	degree int
	best   int64
}

func (p *maxIDProtocol) NewMachine(info NodeInfo) Machine {
	return &maxIDMachine{radius: p.radius, degree: info.Degree, best: info.ID}
}

func (m *maxIDMachine) Round(round int, inbox []Message) ([]Message, bool) {
	for _, msg := range inbox {
		if msg == nil {
			continue
		}
		if id := msg.(int64); id > m.best {
			m.best = id
		}
	}
	if round > m.radius {
		return nil, true
	}
	outbox := make([]Message, m.degree)
	for i := range outbox {
		outbox[i] = m.best
	}
	return outbox, false
}

func (m *maxIDMachine) Output() any { return m.best }

func TestMessageEngineMaxID(t *testing.T) {
	g := graph.Path(7)
	outputs, stats, err := Run(g, &maxIDProtocol{radius: 2}, nil, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// IDs are 1..7 by default; node 0 sees up to node 2 (ID 3).
	if outputs[0].(int64) != 3 {
		t.Errorf("node 0 output %v, want 3", outputs[0])
	}
	if outputs[6].(int64) != 7 {
		t.Errorf("node 6 output %v, want 7", outputs[6])
	}
	if outputs[3].(int64) != 6 {
		t.Errorf("node 3 output %v, want 6", outputs[3])
	}
	if stats.Rounds != 3 { // radius rounds of flooding + the deciding round
		t.Errorf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.Messages == 0 {
		t.Error("no messages counted")
	}
}

func TestMessageEngineIsolatedNodes(t *testing.T) {
	g := graph.New(3) // no edges
	outputs, _, err := Run(g, &maxIDProtocol{radius: 2}, nil, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if outputs[v].(int64) != g.ID(v) {
			t.Errorf("isolated node %d output %v", v, outputs[v])
		}
	}
}

func TestAdviceStats(t *testing.T) {
	adv := Advice{bitstr.New(1), bitstr.New(0), bitstr.New(1)}
	ratio, err := adv.OnesRatio()
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.66 || ratio > 0.67 {
		t.Errorf("ratio = %v, want 2/3", ratio)
	}
	if adv.TotalBits() != 3 || adv.MaxBits() != 1 {
		t.Error("bit accounting wrong")
	}
	bad := Advice{bitstr.New(1, 0)}
	if _, err := bad.OnesRatio(); err == nil {
		t.Error("OnesRatio accepted multi-bit advice")
	}
	holders := Advice{bitstr.String{}, bitstr.New(1)}.BitHolders()
	if len(holders) != 1 || holders[0] != 1 {
		t.Errorf("BitHolders = %v", holders)
	}
}

func TestBuildViewRadius(t *testing.T) {
	g := graph.Cycle(8)
	view := BuildView(g, nil, 0, 2)
	if view.G.N() != 5 {
		t.Errorf("view has %d nodes, want 5", view.G.N())
	}
	if view.Dist[view.Center] != 0 {
		t.Error("center distance nonzero")
	}
	if view.NodeByID(g.ID(2)) == -1 || view.NodeByID(g.ID(6)) == -1 {
		t.Error("node at distance 2 missing from view")
	}
	if view.NodeByID(g.ID(3)) != -1 || view.NodeByID(g.ID(5)) != -1 {
		t.Error("node at distance 3 visible in radius-2 view")
	}
}

func TestBuildViewExcludesBoundaryEdges(t *testing.T) {
	// Triangle: from any node with radius 1, the two neighbors are at
	// distance exactly 1, so the edge between them must be invisible.
	g := graph.Complete(3)
	view := BuildView(g, nil, 0, 1)
	if view.G.M() != 2 {
		t.Errorf("radius-1 view of triangle has %d edges, want 2", view.G.M())
	}
	// With radius 2 the whole triangle is visible.
	view2 := BuildView(g, nil, 0, 2)
	if view2.G.M() != 3 {
		t.Errorf("radius-2 view of triangle has %d edges, want 3", view2.G.M())
	}
}

func TestBuildViewTrueDegree(t *testing.T) {
	g := graph.Star(5)
	view := BuildView(g, nil, 1, 1) // a leaf sees the center
	c := view.NodeByID(g.ID(0))
	if c == -1 {
		t.Fatal("center invisible from leaf at radius 1")
	}
	if view.TrueDegree[c] != 5 {
		t.Errorf("center TrueDegree = %d, want 5", view.TrueDegree[c])
	}
	// But within the view the center shows only 1 edge.
	if view.G.Degree(c) != 1 {
		t.Errorf("center view degree = %d, want 1", view.G.Degree(c))
	}
}

func TestBuildViewCarriesAdvice(t *testing.T) {
	g := graph.Path(3)
	adv := Advice{bitstr.New(1), bitstr.New(0), bitstr.New(1, 1)}
	view := BuildView(g, adv, 1, 1)
	for i := 0; i < view.G.N(); i++ {
		orig := g.NodeByID(view.G.ID(i))
		if !view.Advice[i].Equal(adv[orig]) {
			t.Errorf("advice mismatch at view node %d", i)
		}
	}
}

func TestRunBallRoundsEqualsRadius(t *testing.T) {
	g := graph.Grid2D(4, 4)
	_, stats := mustRunBall(t, g, nil, 3, func(view *View) any { return view.G.N() }, RunConfig{})
	if stats.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", stats.Rounds)
	}
}

func TestEngineEquivalence(t *testing.T) {
	// The gather protocol on the message engine must assemble exactly the
	// same view (same nodes, edges, advice) as BuildView, for several
	// graphs and radii.
	rng := rand.New(rand.NewSource(42))
	graphs := map[string]*graph.Graph{
		"cycle9":  graph.Cycle(9),
		"grid3x4": graph.Grid2D(3, 4),
		"k5":      graph.Complete(5),
		"tree4":   graph.CompleteBinaryTree(4),
		"gnp":     graph.RandomGNP(12, 0.3, rng),
	}
	for name, g := range graphs {
		graph.AssignPermutedIDs(g, rng)
		adv := make(Advice, g.N())
		for v := range adv {
			adv[v] = bitstr.New(rng.Intn(2))
		}
		for _, radius := range []int{1, 2, 3} {
			summarize := func(view *View) any {
				// A canonical fingerprint of the view: sorted ID pairs of
				// edges plus sorted (ID, advice, truedeg, dist) tuples.
				edgeFPs := make([]string, 0, view.G.M())
				for _, e := range view.G.Edges() {
					a, b := view.G.ID(e.U), view.G.ID(e.V)
					if a > b {
						a, b = b, a
					}
					edgeFPs = append(edgeFPs, fingerprintEdge(a, b))
				}
				sort.Strings(edgeFPs)
				fp := strings.Join(edgeFPs, "")
				ids := make([]int64, view.G.N())
				for i := range ids {
					ids[i] = view.G.ID(i)
				}
				sortIDs(ids)
				for _, id := range ids {
					i := view.NodeByID(id)
					fp += fingerprintNode(id, view.Advice[i], view.TrueDegree[i], view.Dist[i])
				}
				return fp
			}
			ballOut, _ := mustRunBall(t, g, adv, radius, summarize, RunConfig{})
			msgOut, _, err := Run(g, &GatherProtocol{Radius: radius, Decide: summarize}, adv, RunConfig{})
			if err != nil {
				t.Fatalf("%s radius %d: %v", name, radius, err)
			}
			for v := range ballOut {
				if ballOut[v] != msgOut[v] {
					t.Errorf("%s radius %d node %d: engines disagree\nball: %v\nmsg:  %v",
						name, radius, v, ballOut[v], msgOut[v])
				}
			}
		}
	}
}

func fingerprintEdge(a, b int64) string {
	return "e" + int64Str(a) + "," + int64Str(b) + ";"
}

func fingerprintNode(id int64, adv bitstr.String, deg, dist int) string {
	return "n" + int64Str(id) + ":" + adv.String() + ":" + int64Str(int64(deg)) + ":" + int64Str(int64(dist)) + ";"
}

func int64Str(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// earlyStopProtocol terminates node v at round v+1 to exercise staggered
// termination in the engine.
type earlyStopProtocol struct{}

type earlyStopMachine struct {
	stopAt int
	degree int
}

func (earlyStopProtocol) NewMachine(info NodeInfo) Machine {
	return &earlyStopMachine{stopAt: int(info.ID % 4), degree: info.Degree}
}

func (m *earlyStopMachine) Round(round int, inbox []Message) ([]Message, bool) {
	if round > m.stopAt {
		return nil, true
	}
	return make([]Message, m.degree), false
}

func (m *earlyStopMachine) Output() any { return m.stopAt }

func TestStaggeredTermination(t *testing.T) {
	g := graph.Cycle(9)
	outputs, stats, err := Run(g, earlyStopProtocol{}, nil, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range outputs {
		if out.(int) != int(g.ID(v)%4) {
			t.Errorf("node %d output %v", v, out)
		}
	}
	if stats.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", stats.Rounds)
	}
}
