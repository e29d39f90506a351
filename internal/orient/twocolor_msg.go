package orient

import (
	"fmt"

	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// This file gives TwoColoringStage a second decoder built on the
// message engine (local.Run, the sharded round scheduler) instead of the
// view engine:
// the marked ruling-set nodes flood (color, distance) waves and everyone
// else adopts the parity of the first wave to arrive. It demonstrates that
// schema decoders are ordinary distributed protocols — the equivalence test
// in twocolor_msg_test.go checks the two decoders agree on every node.

// colorWave is the message flooded from marked nodes: the originating
// marker's color, its ID (for deterministic tie-breaks), and the hop
// distance travelled so far.
type colorWave struct {
	color    int // 1 or 2 at the marker
	markerID int64
	dist     int
}

// better reports whether wave a should win over wave b at a node.
func (a colorWave) better(b colorWave) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.markerID < b.markerID
}

// twoColorMachine is the per-node state machine.
type twoColorMachine struct {
	info    local.NodeInfo
	radius  int
	best    *colorWave
	lastTx  *colorWave // last wave we broadcast, to avoid re-sending
	decided int
}

type twoColorProtocol struct{ radius int }

var _ local.Protocol = (*twoColorProtocol)(nil)

func (p *twoColorProtocol) NewMachine(info local.NodeInfo) local.Machine {
	m := &twoColorMachine{info: info, radius: p.radius}
	if info.Advice.Len() == 1 {
		m.best = &colorWave{color: 1 + info.Advice.Bit(0), markerID: info.ID, dist: 0}
	}
	return m
}

func (m *twoColorMachine) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	for _, msg := range inbox {
		if msg == nil {
			continue
		}
		w := msg.(colorWave)
		w.dist++
		if m.best == nil || w.better(*m.best) {
			cp := w
			m.best = &cp
		}
	}
	// After radius+1 rounds every node within the covering radius has heard
	// its nearest marker's wave (one round of slack for the send/receive
	// pipeline).
	if round > m.radius+1 {
		if m.best == nil {
			m.decided = 0 // no marker in range; reported as an error below
			return nil, true
		}
		// Bipartite parity: flip the marker's color once per odd distance.
		m.decided = 1 + (m.best.color-1+m.best.dist)%2
		return nil, true
	}
	if m.best != nil && (m.lastTx == nil || m.best.better(*m.lastTx)) {
		cp := *m.best
		m.lastTx = &cp
		out := make([]local.Message, m.info.Degree)
		for i := range out {
			out[i] = cp
		}
		return out, false
	}
	return make([]local.Message, m.info.Degree), false
}

func (m *twoColorMachine) Output() any { return m.decided }

// DecodeVarMessage decodes the stage's advice with the message engine. It
// must produce exactly the same coloring as DecodeVar.
func (t TwoColoringStage) DecodeVarMessage(g *graph.Graph, va core.VarAdvice, _ []*lcl.Solution) (*lcl.Solution, local.Stats, error) {
	if t.CoverRadius < 1 {
		return nil, local.Stats{}, fmt.Errorf("orient: two-coloring cover radius must be >= 1, got %d", t.CoverRadius)
	}
	outputs, stats, err := local.Run(g, &twoColorProtocol{radius: t.CoverRadius}, va.Dense(g.N()), local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		c := out.(int)
		if c == 0 {
			return nil, stats, fmt.Errorf("orient: node %d heard no marker within %d rounds", v, t.CoverRadius)
		}
		sol.Node[v] = c
	}
	return sol, stats, nil
}
