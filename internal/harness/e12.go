package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"localadvice/internal/coloring"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/orient"
)

// This file is the deterministic-LLL pipeline surface: the DetSchema
// adapters that switch the two LLL-backed advice schemas (orient shift
// placement, ruling-group selection of the 3-coloring schema) between
// Moser–Tardos and the derandomized solvers, and experiment E12 comparing
// the three methods. The adapters are shared by E12, the seed-independence
// test wall, the server's det-mode schema entries and perfbench.

// DetMethod names one LLL resolution strategy.
type DetMethod string

const (
	// MethodMT resolves the schema's LLL instance by seeded Moser–Tardos
	// resampling — the randomized constructive path.
	MethodMT DetMethod = "mt"
	// MethodDet resolves it by the method of conditional expectations — no
	// RNG, advice is a pure function of the graph.
	MethodDet DetMethod = "det"
	// MethodDecomposed is MethodDet running ball-by-ball over a low-diameter
	// decomposition of the event dependency graph.
	MethodDecomposed DetMethod = "decomposed"
)

// DetMethods lists the three methods in E12 row order.
func DetMethods() []DetMethod { return []DetMethod{MethodMT, MethodDet, MethodDecomposed} }

// detMTCap bounds the Moser–Tardos resampling work of the adapters; the E12
// families satisfy the symmetric LLL condition, so actual counts stay far
// below it.
const detMTCap = 1 << 20

// DetSchema adapts one LLL-backed advice schema to the deterministic
// pipeline: method-selectable encoding with solver metrics, and decoding on
// any named engine (local.EngineNames).
type DetSchema struct {
	// Name is the schema identifier ("orient", "color3").
	Name string
	// Problem is the LCL the decoded output is verified against.
	Problem func(g *graph.Graph) lcl.Problem
	// EncodeWith computes the advice with the given method. seed drives
	// Moser–Tardos only (MethodDet/MethodDecomposed ignore it — their output
	// is a pure function of g). Solver metrics (lll.resamplings,
	// lll.evaluations, lll.repairs, lll.events, …) are reported into m; a
	// nil collector records nothing. MethodMT runs under the detMTCap
	// resampling bound.
	EncodeWith func(method DetMethod, g *graph.Graph, seed int64, m *obs.Collector) (local.Advice, error)
	// DecodeOn runs the schema's LOCAL decoder on a named engine.
	DecodeOn func(engine string, g *graph.Graph, advice local.Advice, cfg local.RunConfig) (*lcl.Solution, local.Stats, error)
}

// Encode is the RunConfig-facing entry point: cfg.DetLLL switches the
// schema onto the deterministic path (conditional expectations, seed
// ignored); otherwise the advice comes from Moser–Tardos seeded with seed.
func (ds DetSchema) Encode(g *graph.Graph, seed int64, cfg local.RunConfig) (local.Advice, error) {
	if cfg.DetLLL {
		return ds.EncodeWith(MethodDet, g, 0, nil)
	}
	return ds.EncodeWith(MethodMT, g, seed, nil)
}

// DetSchemaByName returns the deterministic-pipeline adapter for "orient"
// or "color3".
func DetSchemaByName(name string) (DetSchema, bool) {
	for _, ds := range DetSchemas() {
		if ds.Name == name {
			return ds, true
		}
	}
	return DetSchema{}, false
}

// DetSchemas returns the two LLL-backed schema adapters.
func DetSchemas() []DetSchema {
	orientSchema := orient.Schema{P: orient.DefaultParams()}
	threeSchema := coloring.ThreeColoring{CoverRadius: 10, GroupSpread: 2}
	return []DetSchema{
		{
			Name:    "orient",
			Problem: func(*graph.Graph) lcl.Problem { return lcl.BalancedOrientation{} },
			EncodeWith: func(method DetMethod, g *graph.Graph, seed int64, m *obs.Collector) (local.Advice, error) {
				var va core.VarAdvice
				var err error
				switch method {
				case MethodMT:
					va, err = orientSchema.EncodeVarLLLObserved(g, rand.New(rand.NewSource(seed)), detMTCap, m)
				case MethodDet:
					va, err = orientSchema.EncodeVarDetObserved(g, m)
				case MethodDecomposed:
					va, err = orientSchema.EncodeVarDecomposedObserved(g, m)
				default:
					err = fmt.Errorf("unknown det method %q", method)
				}
				if err != nil {
					return nil, err
				}
				return va.Dense(g.N()), nil
			},
			DecodeOn: func(engine string, g *graph.Graph, advice local.Advice, cfg local.RunConfig) (*lcl.Solution, local.Stats, error) {
				return orientSchema.DecodeVarOn(engine, g, core.SparseFromDense(advice), cfg)
			},
		},
		{
			Name:    "color3",
			Problem: func(*graph.Graph) lcl.Problem { return lcl.Coloring{K: 3} },
			EncodeWith: func(method DetMethod, g *graph.Graph, seed int64, m *obs.Collector) (local.Advice, error) {
				switch method {
				case MethodMT:
					return threeSchema.EncodeLLLObserved(g, rand.New(rand.NewSource(seed)), detMTCap, m)
				case MethodDet:
					return threeSchema.EncodeDetObserved(g, m)
				case MethodDecomposed:
					return threeSchema.EncodeDecomposedObserved(g, m)
				default:
					return nil, fmt.Errorf("unknown det method %q", method)
				}
			},
			DecodeOn: threeSchema.DecodeOn,
		},
	}
}

// e12Graphs returns the E12 families for one schema. The orient shift
// systems of these families satisfy the symmetric LLL condition (dependency
// degree stays in single digits), which is the regime the derandomization
// guarantee covers — grid/torus shift systems have dependency degree ~45,
// violate the condition badly (Moser–Tardos itself needs >10^5 resamplings
// or stalls), and stay on the greedy placement path. The color3 families
// include the two (triangular strip, chorded cycle) whose pendant-leaf
// structure makes the Section 7 ruling-group machinery run for real
// (rulers > 0); on cycles the selection instance is empty and every method
// trivially agrees.
func e12Graphs(schema string) []struct {
	name string
	g    *graph.Graph
} {
	rng := rand.New(rand.NewSource(12))
	var gs []struct {
		name string
		g    *graph.Graph
	}
	add := func(name string, g *graph.Graph) {
		gs = append(gs, struct {
			name string
			g    *graph.Graph
		}{name, g})
	}
	switch schema {
	case "orient":
		add("cycle", graph.Cycle(1024))
		add("path", graph.Path(1024))
		add("cyclepow", graph.CyclePowers(512, 2))
		for _, e := range gs {
			graph.AssignPermutedIDs(e.g, rng)
		}
	default: // color3
		// The greedy ruling-group placer (Section 7) is ID-order sensitive:
		// some labellings of the triangular strip push placements out of the
		// feasible window. The permutation seed is pinned to a labelling
		// where placement succeeds — the experiment's subject is LLL-seed
		// independence, which is orthogonal to the ID labelling.
		add("cycle", graph.Cycle(512))
		add("tristrip", graph.TriangularStrip(80))
		add("chordcycle", graph.ChordedCycle(120))
		for _, e := range gs {
			graph.AssignPermutedIDs(e.g, rand.New(rand.NewSource(1)))
		}
	}
	return gs
}

// e12Seeds are the seeds every method runs under; MethodMT consumes them,
// the deterministic methods prove they ignore them.
func e12Seeds() []int64 { return []int64{1, 2, 3, 4, 5} }

// adviceFingerprint renders advice as a canonical string (for counting
// distinct outputs across seeds).
func adviceFingerprint(a local.Advice) string {
	var sb strings.Builder
	for _, s := range a {
		sb.WriteString(s.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// eventTotal sums the values of one event kind in a collector.
func eventTotal(c *obs.Collector, kind string) int64 {
	var total int64
	for _, e := range c.Events() {
		if e.Kind == kind {
			total += e.Value
		}
	}
	return total
}

// RunE12 compares the three LLL resolution methods — Moser–Tardos (mt),
// conditional expectations (det), and the decomposition-guided variant
// (decomposed) — for both LLL-backed schemas across graph families. Each
// (schema, family, method) cell runs the encoder under 5 seeds and reports
// the instance size, the mean resampling and Bad-evaluation counts (the
// work unit the randomized and deterministic paths share), the mean repair
// moves, the advice bits, the number of distinct advice outputs across the
// seeds (the seed-independence measurement: always 1 on the det paths,
// routinely > 1 for mt wherever the instance leaves any freedom), and the
// decode rounds + verification of the final advice.
func RunE12() (*Table, error) {
	t := &Table{
		ID: "E12", Title: "Deterministic LLL: conditional expectations vs Moser-Tardos across seeds",
		Header: []string{"schema", "family", "n", "method", "events", "resamp", "evals", "repairs", "bits", "distinct5", "rounds", "valid"},
	}
	for _, ds := range DetSchemas() {
		for _, e := range e12Graphs(ds.Name) {
			g := e.g
			for _, method := range DetMethods() {
				seeds := e12Seeds()
				var advice local.Advice
				var events int64
				var sumResamp, sumEvals, sumRepairs int64
				distinct := map[string]bool{}
				for _, seed := range seeds {
					c := &obs.Collector{}
					a, err := ds.EncodeWith(method, g, seed, c)
					if err != nil {
						return nil, fmt.Errorf("E12 %s/%s/%s seed %d: %w", ds.Name, e.name, method, seed, err)
					}
					advice = a
					distinct[adviceFingerprint(a)] = true
					events = eventTotal(c, "lll.events")
					sumResamp += eventTotal(c, "lll.resamplings")
					sumEvals += eventTotal(c, "lll.evaluations")
					sumRepairs += eventTotal(c, "lll.repairs")
				}
				if method != MethodMT && len(distinct) != 1 {
					return nil, fmt.Errorf("E12 %s/%s/%s: deterministic method produced %d distinct outputs across seeds",
						ds.Name, e.name, method, len(distinct))
				}
				sol, stats, err := ds.DecodeOn("ball", g, advice, local.RunConfig{})
				if err != nil {
					return nil, fmt.Errorf("E12 %s/%s/%s decode: %w", ds.Name, e.name, method, err)
				}
				if err := lcl.Verify(ds.Problem(g), g, sol); err != nil {
					return nil, fmt.Errorf("E12 %s/%s/%s verify: %w", ds.Name, e.name, method, err)
				}
				runs := float64(len(seeds))
				t.AddRow(ds.Name, e.name, d(g.N()), string(method), d(int(events)),
					f2(float64(sumResamp)/runs), f2(float64(sumEvals)/runs), f2(float64(sumRepairs)/runs),
					d(advice.TotalBits()), d(len(distinct)), d(stats.Rounds), b(true))
			}
		}
	}
	t.Notes = append(t.Notes,
		"det/decomposed rows always show resamp 0 and distinct5 1: conditional expectations takes no RNG, so the advice is a pure function of the graph — the basis of the seedless det-mode cache keys (DESIGN.md decision 12)",
		"evals counts Bad-predicate calls, the work unit shared by all three methods; mt's evals vary with the seed (the mean over the 5 seeds is shown), det's are exact and constant",
		"tristrip/chordcycle are the families whose pendant-leaf structure makes the Section 7 ruling-group selection run for real (rulers > 0); there mt's advice differs across seeds while det stays bit-identical",
		"color3 events is always 0: with valid parameters (CoverRadius >= 4*GroupSpread+2) ruler spacing keeps candidate-group reaches disjoint, so the selection instance is structurally conflict-free — yet mt still samples its initial assignment at random, which is exactly the seed dependence the det path removes",
		"orient families satisfy the symmetric LLL condition e*p*(d+1) <= 1; grid/torus shift systems violate it (dependency degree ~45) and stay on the greedy placement path",
		"regenerate with: go run ./cmd/locad exp E12")
	return t, nil
}
