package local

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
)

// TestRunBallAllocsIndependentOfGraphSize pins the ball engine's steady
// state: each worker rebuilds one View in place, so a single-worker run
// whose algorithm returns a preboxed value allocates the same number of
// times on a 256-node and a 1024-node cycle. A failure prints the count of
// an engine that builds a fresh View and subgraph per node.
func TestRunBallAllocsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	boxed := any(struct{ x, y int }{1, 2})
	algo := func(*View) any { return boxed }
	// Allocations per run on cycle-1024 with a fresh View per node.
	fresh := map[int]int{0: 10242, 1: 13314, 27: 13316}
	for _, radius := range []int{0, 1, 27} {
		allocs := make(map[int]float64)
		for _, n := range []int{256, 1024} {
			g := graph.Cycle(n)
			run := func() {
				if _, _, err := RunBall(g, nil, radius, algo, RunConfig{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the CSR snapshot and the pooled builder
			allocs[n] = testing.AllocsPerRun(20, run)
		}
		t.Logf("radius %d: %.0f allocations per run on cycle-256, %.0f on cycle-1024", radius, allocs[256], allocs[1024])
		if allocs[256] != allocs[1024] {
			t.Errorf("radius %d: %.0f allocations per run on cycle-256 but %.0f on cycle-1024; want equal (a fresh View per node: %d on cycle-1024)",
				radius, allocs[256], allocs[1024], fresh[radius])
		}
	}
}

// reusedViewFingerprint is viewFingerprint plus the view graph's CSR
// maximum degree and the lengths of the per-node slices, so a CSR snapshot
// cached across an in-place rebuild shows, as do a stale NodeByID map
// (viewFingerprint looks nodes up by ID) and slices left at an earlier
// view's length.
func reusedViewFingerprint(view *View) any {
	return fmt.Sprintf("%s|csrΔ%d|len%d,%d,%d", viewFingerprint(view), view.G.Snapshot().MaxDegree(),
		len(view.Dist), len(view.Advice), len(view.TrueDegree))
}

// TestReusedViewMatchesFreshBuildView checks that the views RunBall
// rebuilds in place are exactly the views a fresh BuildView returns. The
// sweep runs the property graphs largest first, then smallest first, with
// advice on every other graph, so a builder that kept a stale cache, a
// stale advice slot or a length from a larger view would differ.
func TestReusedViewMatchesFreshBuildView(t *testing.T) {
	gs := propertyGraphs(t, 4)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		na, nb := gs[names[a]].N(), gs[names[b]].N()
		return na > nb || na == nb && names[a] < names[b]
	})
	sweep := append([]string(nil), names...)
	for i := len(names) - 1; i >= 0; i-- {
		sweep = append(sweep, names[i])
	}
	rng := rand.New(rand.NewSource(41))
	for i, name := range sweep {
		g := gs[name]
		var advice Advice
		if i%2 == 0 {
			advice = make(Advice, g.N())
			for v := range advice {
				width := 1 + rng.Intn(2)
				advice[v] = bitstr.FromUint(uint64(rng.Intn(1<<width)), width)
			}
		}
		for radius := 0; radius <= 3; radius++ {
			for _, workers := range []int{1, 4} {
				out, _ := mustRunBall(t, g, advice, radius, reusedViewFingerprint, RunConfig{Workers: workers})
				for v := range out {
					if want := reusedViewFingerprint(BuildView(g, advice, v, radius)); out[v] != want {
						t.Fatalf("step %d (%s, n=%d) r=%d workers=%d node %d: reused view differs from BuildView\nreused: %v\nfresh:  %v",
							i, name, g.N(), radius, workers, v, out[v], want)
					}
				}
			}
		}
	}
}
