package eth

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// tableInput is one graph with advice for a compiled MIS table.
type tableInput struct {
	name   string
	g      *graph.Graph
	advice local.Advice
	table  *Table
}

// TestTableScratchReuseMatches compiles and runs MIS tables over a sequence
// of inputs forward and then in reverse, at 1, 2 and 8 workers, and checks
// that every node's fingerprint and lookup (its output or its error text),
// the Table.Run result and the compiled entries are the same in every run.
// Each worker renders fingerprints into one pooled scratch across nodes,
// view sizes and inputs, and the tampered input holds views the table has
// never seen, so state that one rendering leaks into the next shows up as
// a difference.
func TestTableScratchReuseMatches(t *testing.T) {
	compile := func(name string, g *graph.Graph, radius int) tableInput {
		advice := misAdvice(g)
		table, err := Compile(misAlgo, radius, []*graph.Graph{g}, []local.Advice{advice})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return tableInput{name, g, advice, table}
	}
	inputs := []tableInput{
		compile("cycle-1024/r0", graph.Cycle(1024), 0),
		compile("cycle-1024/r1", graph.Cycle(1024), 1),
		compile("path-600/r0", graph.Path(600), 0),
		compile("path-600/r1", graph.Path(600), 1),
	}
	// Tamper with the radius-1 cycle table's advice: two adjacent members
	// never occur in MIS advice, so the nodes that see them miss the table
	// while nodes farther away answer normally.
	tampered := compile("tampered", graph.Cycle(1024), 1)
	tampered.advice = slices.Clone(tampered.advice)
	for v := 0; v+1 < tampered.g.N(); v++ {
		if tampered.advice[v].Bit(0) == 1 {
			tampered.advice[v+1] = bitstr.New(1)
			break
		}
	}
	inputs = append(inputs, tampered)

	want := make([][]string, len(inputs))
	for i, in := range inputs {
		want[i] = tableOutputs(t, in, 1)
	}
	if n := strings.Count(strings.Join(want[len(want)-1], "\n"), "not in table"); n == 0 || n >= tampered.g.N() {
		t.Fatalf("tampered advice misses the table at %d of %d nodes, want some but not all", n, tampered.g.N())
	}
	for _, workers := range []int{1, 2, 8} {
		for _, reverse := range []bool{false, true} {
			for k := range inputs {
				i := k
				if reverse {
					i = len(inputs) - 1 - k
				}
				for j, line := range tableOutputs(t, inputs[i], workers) {
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

// tableOutputs renders each node's fingerprint and table lookup at the
// given worker count, one line per node, then a line with the Table.Run
// result and a line with the entries Compile derives from the same graph and
// advice. Compile and Table.Run take the process-wide default worker count,
// which is set for the call.
func tableOutputs(t *testing.T, in tableInput, workers int) []string {
	t.Helper()
	local.SetDefaultWorkers(workers)
	defer local.SetDefaultWorkers(0)
	cfg := local.RunConfig{Workers: workers}
	radius := in.table.Radius
	keys, _, err := local.RunBall(in.g, in.advice, radius, func(view *local.View) any { return CanonicalizeView(view) }, cfg)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	outs, _, err := local.RunBall(in.g, in.advice, radius, in.table.lookup, cfg)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	lines := make([]string, 0, len(outs)+2)
	for v := range outs {
		lines = append(lines, fmt.Sprintf("%d: %s -> %v", v, keys[v], outs[v]))
	}
	if run, _, err := in.table.Run(in.g, in.advice); err != nil {
		lines = append(lines, fmt.Sprintf("run: %v", err))
	} else {
		lines = append(lines, fmt.Sprintf("run: %v", run))
	}
	compiled, err := Compile(misAlgo, radius, []*graph.Graph{in.g}, []local.Advice{in.advice})
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	entries := make([]string, 0, len(compiled.Entries))
	for k, out := range compiled.Entries {
		entries = append(entries, fmt.Sprintf("%s -> %v", k, out))
	}
	slices.Sort(entries)
	return append(lines, "entries: "+strings.Join(entries, " | "))
}
