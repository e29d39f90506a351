package orient

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// decodeInput is one graph with orientation advice.
type decodeInput struct {
	name string
	g    *graph.Graph
	va   core.VarAdvice
}

// TestDecodeVarScratchReuseMatches decodes a sequence of inputs forward and
// then in reverse, at 1, 2 and 8 workers, and checks that every node's
// edge claims (or its error text) and the assembled orientation (or its
// error) are the same in every run. Each worker walks its trail segments
// into one pooled scratch across nodes, segment lengths and inputs, and
// the tampered input makes the nodes that read its broken marked pair fail
// mid-walk, so state that one decode leaks into the next shows up as a
// difference.
func TestDecodeVarScratchReuseMatches(t *testing.T) {
	s := Schema{P: DefaultParams()}
	encode := func(name string, g *graph.Graph) decodeInput {
		va, err := s.EncodeVar(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return decodeInput{name, g, va}
	}
	inputs := []decodeInput{
		encode("cycle-1024", graph.Cycle(1024)),
		encode("path-600", graph.Path(600)),
		encode("torus-12x12", graph.Torus2D(12, 12)),
	}
	// Tamper with cycle-1024's advice: give the second node of the first
	// marked pair the first node's out bit. Nodes whose nearest pair it is
	// fail ("inconsistent out bits"); nodes nearer another pair decode.
	tampered := encode("tampered", graph.Cycle(1024))
	tampered.va = maps.Clone(tampered.va)
	for v := 0; v+1 < tampered.g.N(); v++ {
		a, b := tampered.va[v], tampered.va[v+1]
		if a.Len() == 2 && b.Len() == 2 && a.Bit(0) == 1 && b.Bit(0) == 1 {
			tampered.va[v+1] = bitstr.New(1, a.Bit(1))
			break
		}
	}
	inputs = append(inputs, tampered)

	want := make([][]string, len(inputs))
	for i, in := range inputs {
		want[i] = decodeVarOutputs(t, s, in, 1)
	}
	if n := strings.Count(strings.Join(want[len(want)-1], "\n"), "inconsistent out bits"); n == 0 || n >= tampered.g.N() {
		t.Fatalf("tampered advice fails at %d of %d nodes, want some but not all", n, tampered.g.N())
	}
	for _, workers := range []int{1, 2, 8} {
		for _, reverse := range []bool{false, true} {
			for k := range inputs {
				i := k
				if reverse {
					i = len(inputs) - 1 - k
				}
				for j, line := range decodeVarOutputs(t, s, inputs[i], workers) {
					if line != want[i][j] {
						t.Errorf("%s at %d workers (reverse %v): line %d differs from the first forward run:\ngot  %s\nwant %s",
							inputs[i].name, workers, reverse, j, line, want[i][j])
						break
					}
				}
			}
		}
	}
}

// decodeVarOutputs renders each node's edge claims or error at the given
// worker count, one line per node, then a line with the assembled
// orientation or the decode error.
func decodeVarOutputs(t *testing.T, s Schema, in decodeInput, workers int) []string {
	t.Helper()
	cfg := local.RunConfig{Workers: workers}
	outs, _, err := local.RunBall(in.g, in.va.Dense(in.g.N()), s.P.DecodeRadius(), s.viewDecide, cfg)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	lines := make([]string, 0, len(outs)+1)
	for v, out := range outs {
		lines = append(lines, fmt.Sprintf("%d: %v", v, out))
	}
	sol, _, err := s.DecodeVarOn("ball", in.g, in.va, cfg)
	if err != nil {
		return append(lines, fmt.Sprintf("decode: %v", err))
	}
	return append(lines, fmt.Sprintf("decode: %v", sol.Edge))
}
