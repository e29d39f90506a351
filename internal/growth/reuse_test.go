package growth

import (
	"fmt"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// decodeInput is one graph with advice for a schema.
type decodeInput struct {
	name   string
	s      Schema
	g      *graph.Graph
	advice local.Advice
}

// TestDecodeScratchReuseMatches decodes a sequence of inputs forward and
// then in reverse, at 1, 2 and 8 workers, and checks that every node's
// output (its labels or its error text) is the same in every run. Each
// worker reuses one pooled decoder scratch across nodes, view sizes and
// inputs, and the tampered input leaves it mid-decode at the nodes that
// fail, so state that one decode leaks into the next shows up as a
// difference.
func TestDecodeScratchReuseMatches(t *testing.T) {
	color3 := func(r int) Schema {
		return Schema{Problem: lcl.Coloring{K: 3}, ClusterRadius: r, Solver: colorSolver}
	}
	encode := func(name string, s Schema, g *graph.Graph) decodeInput {
		advice, err := s.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return decodeInput{name, s, g, advice}
	}
	inputs := []decodeInput{
		encode("cycle-1200", color3(60), graph.Cycle(1200)),
		encode("solo", color3(40), graph.DisjointUnion(graph.Cycle(400), graph.Path(5), graph.New(3))),
		encode("path-600", color3(60), graph.Path(600)),
		encode("ladder-300", Schema{Problem: lcl.Coloring{K: 4}, ClusterRadius: 60, Solver: colorSolver}, graph.Ladder(300)),
		encode("mis", Schema{Problem: lcl.MIS{}, ClusterRadius: 40}, graph.Cycle(500)),
		encode("matching", Schema{Problem: lcl.MaximalMatching{}, ClusterRadius: 40}, graph.Cycle(400)),
	}
	// Tamper with cycle-600's advice: a third 1-bit next to the first marker
	// pair makes nodes that see it fail ("marker component of size 3")
	// while nodes farther away decode normally.
	tampered := encode("tampered", color3(60), graph.Cycle(600))
	for v := 0; v+2 < tampered.g.N(); v++ {
		if tampered.advice[v].Bit(0) == 1 && tampered.advice[v+1].Bit(0) == 1 {
			tampered.advice[v+2] = bitstr.New(1)
			break
		}
	}
	inputs = append(inputs, tampered)

	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = decodeOutputs(t, in, 1)
	}
	if n := strings.Count(want[len(want)-1], "marker component"); n == 0 || n == tampered.g.N() {
		t.Fatalf("tampered advice fails at %d of %d nodes, want some but not all", n, tampered.g.N())
	}
	for _, workers := range []int{1, 2, 8} {
		for _, reverse := range []bool{false, true} {
			for k := range inputs {
				i := k
				if reverse {
					i = len(inputs) - 1 - k
				}
				if got := decodeOutputs(t, inputs[i], workers); got != want[i] {
					t.Errorf("%s at %d workers (reverse %v): outputs differ from the first forward run:\n%s",
						inputs[i].name, workers, reverse, firstDiff(got, want[i]))
				}
			}
		}
	}
}

// decodeOutputs runs the node decoder on every node of the input and
// renders each node's output, one line per node.
func decodeOutputs(t *testing.T, in decodeInput, workers int) string {
	t.Helper()
	outputs, _, err := local.RunBall(in.g, in.advice, in.s.DecodeRadius(), in.s.decoder().decodeNode, local.RunConfig{Workers: workers})
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	var sb strings.Builder
	for v, out := range outputs {
		fmt.Fprintf(&sb, "%d: %v\n", v, out)
	}
	return sb.String()
}

// firstDiff returns the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("got  %s\nwant %s", g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
