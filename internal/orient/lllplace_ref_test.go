package orient

import (
	"math/rand"
	"slices"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/lll"
)

// buildShiftSystemReference is the original buildShiftSystem, kept as the
// oracle the indexed build must match: it finds interacting plan pairs by
// an all-pairs scan over map-based reach sets, and its conflict test
// builds a map on every call.
func (s Schema) buildShiftSystemReference(g *graph.Graph) (*shiftSystem, error) {
	if err := s.P.validate(); err != nil {
		return nil, err
	}
	dec := Decompose(g)

	// Plan: for each long trail, base positions every MarkSpacing steps;
	// each mark may shift forward by up to MarkWindow-1 steps.
	var plans []shiftPlan
	for id := range dec.Trails {
		t := &dec.Trails[id]
		if t.Len() <= s.P.shortBound() {
			continue
		}
		dirBit := 0
		if CanonicalDirection(g, t) {
			dirBit = 1
		}
		for base := 0; base+1 < t.Len(); base += s.P.MarkSpacing {
			plans = append(plans, shiftPlan{trail: id, base: base, dirBit: dirBit})
		}
	}
	if len(plans) == 0 {
		return nil, nil
	}
	sys := &shiftSystem{schema: s, dec: dec, plans: plans}

	// Conflicts: two pairs sharing a node, or a node of one pair adjacent
	// to a node of the other (the role-ambiguity rule of schema.go).
	// Precompute which plan pairs can interact at all: their reachable
	// node sets within the shift window must come within distance 1.
	window := s.P.MarkWindow
	reach := make([]map[int]bool, len(plans))
	for i := range plans {
		reach[i] = map[int]bool{}
		for sft := 0; sft < window; sft++ {
			if a, bnode, ok := sys.pairAt(i, sft); ok {
				reach[i][a] = true
				reach[i][bnode] = true
				for _, u := range g.Neighbors(a) {
					reach[i][u] = true
				}
				for _, u := range g.Neighbors(bnode) {
					reach[i][u] = true
				}
			}
		}
	}
	type pairEvent struct{ i, j int }
	var pairs []pairEvent
	for i := range plans {
		for j := i + 1; j < len(plans); j++ {
			touch := false
			for v := range reach[j] {
				if reach[i][v] {
					touch = true
					break
				}
			}
			if touch {
				pairs = append(pairs, pairEvent{i, j})
			}
		}
	}

	conflict := func(i, si, j, sj int) bool {
		ai, bi, oki := sys.pairAt(i, si)
		aj, bj, okj := sys.pairAt(j, sj)
		if !oki || !okj {
			return true // a clamped-out plan is itself a violation
		}
		nodes := map[int]bool{ai: true, bi: true}
		if nodes[aj] || nodes[bj] {
			return true
		}
		for _, v := range []int{aj, bj} {
			for _, u := range g.Neighbors(v) {
				if nodes[u] {
					return true
				}
			}
		}
		return false
	}

	// Events 0..P-1 are the per-plan clamp events (bad iff the shift pushes
	// the pair past the trail end); events P.. are the pairwise conflicts.
	numPlans := len(plans)
	sys.inst = &lll.Instance{
		NumVars:    numPlans,
		DomainSize: func(int) int { return window },
		NumEvents:  numPlans + len(pairs),
		Vars: func(e int) []int {
			if e < numPlans {
				return []int{e}
			}
			ev := pairs[e-numPlans]
			return []int{ev.i, ev.j}
		},
		Bad: func(e int, a []int) bool {
			if e < numPlans {
				_, _, ok := sys.pairAt(e, a[e])
				return !ok
			}
			ev := pairs[e-numPlans]
			return conflict(ev.i, a[ev.i], ev.j, a[ev.j])
		},
	}
	return sys, nil
}

// namedGraph is one graph of the oracle corpus.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// shiftSystemGraphs is the oracle corpus: sparse and dense families under
// permuted IDs, which move the trail decomposition and so the plans.
func shiftSystemGraphs() []namedGraph {
	out := []namedGraph{
		{"cycle50", graph.Cycle(50)},
		{"cycle1024", graph.Cycle(1024)},
		{"path60", graph.Path(60)},
		{"path301", graph.Path(301)},
		{"cpower200-2", graph.CyclePowers(200, 2)},
		{"cpower90-3", graph.CyclePowers(90, 3)},
		{"grid5x8", graph.Grid2D(5, 8)},
		{"grid12x20", graph.Grid2D(12, 20)},
		{"torus6x6", graph.Torus2D(6, 6)},
		{"torus16x16", graph.Torus2D(16, 16)},
		{"tristrip40", graph.TriangularStrip(40)},
		{"cycle64+torus4", graph.DisjointUnion(graph.Cycle(64), graph.Torus2D(4, 4))},
	}
	rng := rand.New(rand.NewSource(1805))
	for _, c := range out {
		graph.AssignPermutedIDs(c.g, rng)
	}
	return out
}

// TestShiftSystemMatchesReference requires the indexed shift-system build
// to compile exactly the reference's lll.Instance: the same variables and
// domains, the same events in the same order with the same variables, and
// the same verdict of every event on seeded assignments. Event order fixes
// Moser–Tardos' lowest-index resampling, the deterministic solver's
// variable order and E12's evals column.
func TestShiftSystemMatchesReference(t *testing.T) {
	s := Schema{P: DefaultParams()}
	rng := rand.New(rand.NewSource(1806))
	for _, c := range shiftSystemGraphs() {
		name, g := c.name, c.g
		got, err := s.buildShiftSystem(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := s.buildShiftSystemReference(g)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: shift system built %v, reference %v", name, got != nil, want != nil)
		}
		if got == nil {
			continue // no long trails: tristrips end a trail at every pendant
		}
		gi, wi := got.inst, want.inst
		t.Logf("%s: %d plans, %d events", name, gi.NumVars, gi.NumEvents)
		if gi.NumVars != wi.NumVars || gi.NumEvents != wi.NumEvents {
			t.Fatalf("%s: %d vars and %d events, reference %d and %d",
				name, gi.NumVars, gi.NumEvents, wi.NumVars, wi.NumEvents)
		}
		if gi.NumEvents == gi.NumVars {
			t.Fatalf("%s: no conflict events to compare", name)
		}
		for v := 0; v < gi.NumVars; v++ {
			if gi.DomainSize(v) != wi.DomainSize(v) {
				t.Fatalf("%s: var %d domain %d, reference %d", name, v, gi.DomainSize(v), wi.DomainSize(v))
			}
		}
		for e := 0; e < gi.NumEvents; e++ {
			if !slices.Equal(gi.Vars(e), wi.Vars(e)) {
				t.Fatalf("%s: event %d vars %v, reference %v", name, e, gi.Vars(e), wi.Vars(e))
			}
		}
		a := make([]int, gi.NumVars)
		for trial := 0; trial < 20; trial++ {
			for v := range a {
				a[v] = rng.Intn(gi.DomainSize(v))
			}
			for e := 0; e < gi.NumEvents; e++ {
				if gi.Bad(e, a) != wi.Bad(e, a) {
					t.Fatalf("%s: event %d under %v: bad=%v, reference %v", name, e, a, gi.Bad(e, a), wi.Bad(e, a))
				}
			}
		}
	}
}

// TestShiftSystemBadAllocs pins one Bad evaluation of a conflict event at
// zero allocations; the reference's conflict test built a map per call.
func TestShiftSystemBadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode changes allocation counts")
	}
	sys, err := Schema{P: DefaultParams()}.buildShiftSystem(graph.Cycle(1024))
	if err != nil {
		t.Fatal(err)
	}
	inst := sys.inst
	a := make([]int, inst.NumVars)
	e := inst.NumVars // the first conflict event
	allocs := testing.AllocsPerRun(100, func() { inst.Bad(e, a) })
	if allocs != 0 {
		t.Errorf("Bad allocates %.0f times per call, want 0", allocs)
	}
}
