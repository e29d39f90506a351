package harness

import (
	"fmt"
	"math/rand"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// detWallGraph builds the small per-schema workload the seed-independence
// wall runs on: a 96-cycle for orient, and for color3 the triangular strip
// whose pendant leaves make the Section 7 ruling-group machinery run for
// real (rulers > 0). Both are ID-permuted so the wall also covers
// non-canonical labellings; the color3 permutation seed is pinned to a
// labelling where the greedy ruling-group placer is feasible (see
// e12Graphs).
func detWallGraph(schema string) *graph.Graph {
	switch schema {
	case "orient":
		g := graph.Cycle(96)
		graph.AssignPermutedIDs(g, rand.New(rand.NewSource(12)))
		return g
	default:
		g := graph.TriangularStrip(80)
		graph.AssignPermutedIDs(g, rand.New(rand.NewSource(1)))
		return g
	}
}

// solutionFingerprint renders a solution canonically for byte-identity
// comparisons across engines and worker counts.
func solutionFingerprint(s *lcl.Solution) string {
	return fmt.Sprintf("%v|%v", s.Node, s.Edge)
}

// TestDetSeedIndependenceWall is the tentpole property wall: for both
// LLL-backed schemas, the deterministic methods (conditional expectations
// and the decomposition-guided variant) produce byte-identical advice
// across 5 distinct seeds, that advice decodes to byte-identical valid
// outputs on every engine at workers -1, 1, and 8, and the seeded
// Moser–Tardos reference — checked against the same lcl.Verify full
// recheck — confirms the deterministic outputs solve the same problem.
func TestDetSeedIndependenceWall(t *testing.T) {
	for _, ds := range DetSchemas() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			g := detWallGraph(ds.Name)
			problem := ds.Problem(g)

			for _, method := range []DetMethod{MethodDet, MethodDecomposed} {
				method := method
				t.Run(string(method), func(t *testing.T) {
					// Advice must ignore the seed entirely.
					var first local.Advice
					var firstFP string
					for _, seed := range e12Seeds() {
						a, err := ds.EncodeWith(method, g, seed, nil)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						fp := adviceFingerprint(a)
						if first == nil {
							first, firstFP = a, fp
							continue
						}
						if fp != firstFP {
							t.Fatalf("advice differs between seed %d and seed %d", seed, e12Seeds()[0])
						}
					}

					// One advice, every engine, three worker counts: all
					// decodes byte-identical and Verify-clean.
					var wantSol string
					for _, engine := range local.EngineNames() {
						for _, workers := range []int{-1, 1, 8} {
							sol, _, err := ds.DecodeOn(engine, g, first, local.RunConfig{Workers: workers})
							if err != nil {
								t.Fatalf("%s workers=%d: %v", engine, workers, err)
							}
							if err := lcl.Verify(problem, g, sol); err != nil {
								t.Fatalf("%s workers=%d: invalid output: %v", engine, workers, err)
							}
							fp := solutionFingerprint(sol)
							if wantSol == "" {
								wantSol = fp
								continue
							}
							if fp != wantSol {
								t.Fatalf("%s workers=%d decoded differently than the first engine", engine, workers)
							}
						}
					}
				})
			}

			// Moser–Tardos reference: each seed's advice decodes to a valid
			// output under the same full recheck — the deterministic paths
			// trade its seed-dependence away without losing correctness.
			for _, seed := range e12Seeds() {
				a, err := ds.EncodeWith(MethodMT, g, seed, nil)
				if err != nil {
					t.Fatalf("mt seed %d: %v", seed, err)
				}
				sol, _, err := ds.DecodeOn("ball", g, a, local.RunConfig{})
				if err != nil {
					t.Fatalf("mt seed %d decode: %v", seed, err)
				}
				if err := lcl.Verify(problem, g, sol); err != nil {
					t.Fatalf("mt seed %d: invalid output: %v", seed, err)
				}
			}
		})
	}
}

// TestDetSchemaByName pins the lookup used by the serving-layer registry
// and perfbench.
func TestDetSchemaByName(t *testing.T) {
	for _, name := range []string{"orient", "color3"} {
		ds, ok := DetSchemaByName(name)
		if !ok || ds.Name != name {
			t.Fatalf("DetSchemaByName(%q) = %q, %v", name, ds.Name, ok)
		}
	}
	if _, ok := DetSchemaByName("nope"); ok {
		t.Fatal("unknown schema name resolved")
	}
}
