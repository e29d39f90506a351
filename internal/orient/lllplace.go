package orient

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/lll"
	"localadvice/internal/obs"
)

// This file implements the paper's original mark-placement strategy for the
// Section 5 schema: plan marks at evenly spaced trail positions and then
// SHIFT each mark by a bounded random amount so that no two marks conflict,
// exactly the Lovász-Local-Lemma argument of Lemma 5.1. The shift system is
// expressed once as an lll.Instance (variable i = shift of plan i; arity-1
// "clamp" events for shifts pushed past the trail end, arity-2 conflict
// events for interacting plan pairs) and solved three ways: constructively
// randomized with Moser–Tardos (EncodeVarLLL), derandomized by conditional
// expectations (EncodeVarDet), and derandomized ball-by-ball over the event
// dependency graph's low-diameter decomposition (EncodeVarDecomposed). The
// greedy placement in schema.go remains the deterministic engineering
// default; the three LLL paths are the faithful-to-the-proof alternatives,
// compared in tests and in the E3/E12 ablations.

// shiftPlan is one planned marked pair: a base trail position plus the
// trail's canonical direction bit.
type shiftPlan struct {
	trail  int
	base   int
	dirBit int
}

// shiftSystem is the compiled Lemma 5.1 shift-placement constraint system.
type shiftSystem struct {
	schema Schema
	dec    *Decomposition
	plans  []shiftPlan
	inst   *lll.Instance
}

// pairAt resolves plan i under shift to its marked pair of trail nodes.
func (sys *shiftSystem) pairAt(i, shift int) (a, b int, ok bool) {
	pl := sys.plans[i]
	t := &sys.dec.Trails[pl.trail]
	p := pl.base + shift
	if p+1 >= len(t.Nodes) {
		return 0, 0, false
	}
	a, b = t.Nodes[p], t.Nodes[p+1]
	return a, b, a != b
}

// buildShiftSystem plans the marks and compiles the shift constraints into
// an lll.Instance. A nil system (no error) means the graph has no long
// trails and needs no marks at all.
func (s Schema) buildShiftSystem(g *graph.Graph) (*shiftSystem, error) {
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
	// to a node of the other (the role-ambiguity rule of schema.go). Only
	// plans whose reach sets meet can interact; a plan's reach is every
	// node a shift within the window can mark, plus their neighbors.
	// Reach sets are sorted slices in one CSR layout, inverted into the
	// plans that reach each node, and each plan's partners are emitted in
	// increasing order: the events are numbered as the all-pairs scan in
	// (i, j) order numbers them, which fixes Moser–Tardos' lowest-index
	// resampling and the deterministic solver's variable order.
	window := s.P.MarkWindow
	var reach []int
	reachOff := make([]int, 1, len(plans)+1)
	for i := range plans {
		start := len(reach)
		for sft := 0; sft < window; sft++ {
			if a, bnode, ok := sys.pairAt(i, sft); ok {
				reach = append(reach, a, bnode)
				reach = append(reach, g.Neighbors(a)...)
				reach = append(reach, g.Neighbors(bnode)...)
			}
		}
		slices.Sort(reach[start:])
		reach = reach[:start+len(slices.Compact(reach[start:]))]
		reachOff = append(reachOff, len(reach))
	}
	reachOf := func(i int) []int { return reach[reachOff[i]:reachOff[i+1]] }
	byNodeOff := make([]int, g.N()+1)
	for _, v := range reach {
		byNodeOff[v+1]++
	}
	for v := 0; v < g.N(); v++ {
		byNodeOff[v+1] += byNodeOff[v]
	}
	byNode, next := make([]int, len(reach)), slices.Clone(byNodeOff[:g.N()])
	for i := range plans {
		for _, v := range reachOf(i) {
			byNode[next[v]] = i
			next[v]++
		}
	}
	type pairEvent struct{ i, j int }
	var pairs []pairEvent
	paired := make([]int, len(plans)) // paired[j] == i+1: (i, j) is emitted
	for i := range plans {
		first := len(pairs)
		for _, v := range reachOf(i) {
			for _, j := range byNode[byNodeOff[v]:byNodeOff[v+1]] {
				if j > i && paired[j] != i+1 {
					paired[j] = i + 1
					pairs = append(pairs, pairEvent{i, j})
				}
			}
		}
		slices.SortFunc(pairs[first:], func(x, y pairEvent) int { return x.j - y.j })
	}

	conflict := func(i, si, j, sj int) bool {
		ai, bi, oki := sys.pairAt(i, si)
		aj, bj, okj := sys.pairAt(j, sj)
		if !oki || !okj {
			return true // a clamped-out plan is itself a violation
		}
		return nearPair(g, ai, bi, aj) || nearPair(g, ai, bi, bj)
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

// nearPair reports whether v is a or b, or adjacent to one of them.
func nearPair(g *graph.Graph, a, b, v int) bool {
	if v == a || v == b {
		return true
	}
	for _, u := range g.Neighbors(v) {
		if u == a || u == b {
			return true
		}
	}
	return false
}

// materialize turns a solved shift assignment into the advice layout of
// Schema.EncodeVar and verifies coverage per trail.
func (sys *shiftSystem) materialize(assignment []int) (core.VarAdvice, error) {
	va := make(core.VarAdvice)
	perTrail := map[int][]int{}
	for i, pl := range sys.plans {
		a, bnode, ok := sys.pairAt(i, assignment[i])
		if !ok {
			return nil, fmt.Errorf("orient: LLL produced a clamped plan")
		}
		va[a] = bitstr.New(1, pl.dirBit)
		va[bnode] = bitstr.New(1, 1-pl.dirBit)
		perTrail[pl.trail] = append(perTrail[pl.trail], pl.base+assignment[i])
	}
	for id, positions := range perTrail {
		sort.Ints(positions)
		if err := sys.schema.checkCoverage(&sys.dec.Trails[id], positions); err != nil {
			return nil, fmt.Errorf("orient: LLL placement, trail %d: %w", id, err)
		}
	}
	return va, nil
}

// EncodeVarLLL computes the same advice layout as Schema.EncodeVar but
// places the marked pairs with Moser–Tardos shifting instead of greedy
// first-fit. rng drives the resampling; maxResamplings caps the work (a
// blown cap surfaces as an error wrapping lll.ErrResamplingCap). Solver
// metrics (lll.resamplings, lll.evaluations, …) go to m; nil records
// nothing.
func (s Schema) EncodeVarLLL(g *graph.Graph, rng *rand.Rand, maxResamplings int, m *obs.Collector) (core.VarAdvice, error) {
	sys, err := s.buildShiftSystem(g)
	if err != nil {
		return nil, err
	}
	if sys == nil {
		return core.VarAdvice{}, nil
	}
	res, err := lll.Solve(sys.inst, rng, maxResamplings, m)
	if err != nil {
		return nil, fmt.Errorf("orient: LLL placement: %w", err)
	}
	return sys.materialize(res.Assignment)
}

// EncodeVarDet is the derandomized EncodeVarLLL: the shifts are fixed by
// the method of conditional expectations (lll.SolveDeterministic), so the
// advice is a pure function of the graph — no RNG, identical across seeds.
// Solver metrics go to m; nil records nothing.
func (s Schema) EncodeVarDet(g *graph.Graph, m *obs.Collector) (core.VarAdvice, error) {
	sys, err := s.buildShiftSystem(g)
	if err != nil {
		return nil, err
	}
	if sys == nil {
		return core.VarAdvice{}, nil
	}
	res, err := lll.SolveDeterministic(sys.inst, m)
	if err != nil {
		return nil, fmt.Errorf("orient: deterministic LLL placement: %w", err)
	}
	return sys.materialize(res.Assignment)
}

// EncodeVarDecomposed is EncodeVarDet running ball-by-ball over the shift
// system's event dependency graph (lll.SolveDecomposed) — the
// network-decomposition-guided derandomization. Also RNG-free. Solver
// metrics go to m; nil records nothing.
func (s Schema) EncodeVarDecomposed(g *graph.Graph, m *obs.Collector) (core.VarAdvice, error) {
	sys, err := s.buildShiftSystem(g)
	if err != nil {
		return nil, err
	}
	if sys == nil {
		return core.VarAdvice{}, nil
	}
	res, err := lll.SolveDecomposed(sys.inst, m)
	if err != nil {
		return nil, fmt.Errorf("orient: decomposed LLL placement: %w", err)
	}
	return sys.materialize(res.Assignment)
}

// EncodeDecodeLLL is a convenience wrapper: LLL placement, then the standard
// decoder, then verification — used by the E3 ablation and tests.
func (s Schema) EncodeDecodeLLL(g *graph.Graph, rng *rand.Rand) (*lcl.Solution, core.VarAdvice, error) {
	va, err := s.EncodeVarLLL(g, rng, 1<<20, obs.Default())
	if err != nil {
		return nil, nil, err
	}
	sol, _, err := s.DecodeVar(g, va, nil)
	if err != nil {
		return nil, va, err
	}
	if err := lcl.Verify(lcl.BalancedOrientation{}, g, sol); err != nil {
		return nil, va, err
	}
	return sol, va, nil
}
