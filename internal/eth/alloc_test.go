package eth

import (
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// TestTableAllocsPerNode bounds the allocations of compiling and running
// the MIS table on cycle-1024 at radius 0 and 1. testing.AllocsPerRun runs
// at GOMAXPROCS 1, so each RunBall inside runs one worker. What remains of
// Compile per node is the fingerprint string and the boxed (key, output)
// pair; Table.Run allocates per run, not per node. The bounds leave room
// for scratch refills after a GC empties the pools. A failure prints the
// counts of the fmt-rendered keys over a fresh view per compiled node.
func TestTableAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	const compileBound, runBound = 3.0, 0.05
	g := graph.Cycle(1024)
	advice := misAdvice(g)
	for _, c := range []struct {
		radius             int
		oldCompile, oldRun float64
	}{{0, 18, 9}, {1, 28, 18}} {
		var table *Table
		compile := func() {
			var err error
			if table, err = Compile(misAlgo, c.radius, []*graph.Graph{g}, []local.Advice{advice}); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			if _, _, err := table.Run(g, advice); err != nil {
				t.Fatal(err)
			}
		}
		compile()
		run()
		compilePerNode := testing.AllocsPerRun(5, compile) / float64(g.N())
		runPerNode := testing.AllocsPerRun(5, run) / float64(g.N())
		t.Logf("radius %d: Compile %.3f, Table.Run %.3f allocations per node", c.radius, compilePerNode, runPerNode)
		if compilePerNode > compileBound {
			t.Errorf("radius %d: Compile makes %.2f allocations per node, want at most %.0f (fmt keys over fresh views: %.2f)",
				c.radius, compilePerNode, compileBound, c.oldCompile)
		}
		if runPerNode > runBound {
			t.Errorf("radius %d: Table.Run makes %.3f allocations per node, want at most %.2f (fmt keys: %.2f)",
				c.radius, runPerNode, runBound, c.oldRun)
		}
	}
}
