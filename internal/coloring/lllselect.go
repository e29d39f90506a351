package coloring

import (
	"fmt"
	"math/rand"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/lll"
	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// This file re-expresses the Section 7 group placement as an explicit LLL
// instance — the paper's own framing: per ruling-set node r a group
// v_{r,C} must be chosen so that the marked sets of different ruling nodes
// never interact (share nodes, touch, or give a color-1 node two marked
// neighbors). Encode (three.go) resolves the choices greedily in ruler
// order; here each ruler's choice is a variable whose domain enumerates the
// feasible-in-isolation candidate groups, interactions become pairwise bad
// events, and the instance is solved by Moser–Tardos (EncodeLLL), by
// conditional expectations (EncodeDet), or ball-by-ball over the event
// dependency graph's decomposition (EncodeDecomposed). The deterministic
// paths take no RNG at all, so their advice is a pure function of the
// graph. Every path ends with the same prover self-check as Encode: the
// advice must decode to a verified proper 3-coloring.

// maxCandidateGroups caps each ruler's domain; the greedy encoder takes the
// first feasible pair, so keeping the first few dozen (in the same
// distance-then-ID candidate order) preserves its choices while bounding
// the enumeration cost of the deterministic solvers.
const maxCandidateGroups = 24

// rulerChoice is one ruling node's selection problem: the candidate groups
// and, per group, the exact node set the anchor rule would mark.
type rulerChoice struct {
	compNode int     // g-index of the ruling node (for error messages)
	markSets [][]int // choice -> sorted g-node indices that get bit 1
}

// selectSystem is the compiled Section 7 selection instance.
type selectSystem struct {
	phi    []int
	bit    []int // type-1 bits already placed; groups add their marks here
	rulers []rulerChoice
	inst   *lll.Instance
}

// buildSelectSystem computes the greedy base coloring and compiles the
// group-selection LLL instance. A nil system (no error) means no component
// is large enough to need groups; the type-1 bits alone decode.
func (t ThreeColoring) buildSelectSystem(g *graph.Graph) (*selectSystem, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	phi, err := greedyBase(g)
	if err != nil {
		return nil, err
	}
	bit := make([]int, g.N())
	for v, c := range phi {
		if c == 1 {
			bit[v] = 1
		}
	}
	sys := &selectSystem{phi: phi, bit: bit}

	// Feasibility-in-isolation uses a clean marked array: interactions
	// between groups are the LLL events, not sequential state.
	clean := make([]bool, g.N())
	for _, comp := range colorComponents(g, phi) {
		sub, orig := g.InducedSubgraph(comp)
		if sub.Diameter() <= t.SmallDiameter() {
			continue
		}
		for _, r := range componentRulingSet(sub, t.CoverRadius) {
			distR := sub.BFSFrom(r)
			candidates := t.candidateSets(g, sub, orig, phi, distR)
			rc := rulerChoice{compNode: orig[r]}
			for i, a := range candidates {
				if len(rc.markSets) >= maxCandidateGroups {
					break
				}
				if !t.setOK(g, phi, clean, bit, a, nil) {
					continue
				}
				for _, b := range candidates[i+1:] {
					if len(rc.markSets) >= maxCandidateGroups {
						break
					}
					if !t.groupCompatible(g, sub, orig, a, b) {
						continue
					}
					if !t.setOK(g, phi, clean, bit, b, a) {
						continue
					}
					rc.markSets = append(rc.markSets, t.anchorMarkSet(g, phi, a, b))
				}
			}
			if len(rc.markSets) == 0 {
				return nil, fmt.Errorf("coloring: no feasible mark group near component node %d", g.ID(rc.compNode))
			}
			sys.rulers = append(sys.rulers, rc)
		}
	}
	if len(sys.rulers) == 0 {
		return sys, nil
	}

	// Pairwise events between rulers whose choices can interact at all:
	// the union of their mark sets' closed neighborhoods must intersect.
	reach := make([]map[int]bool, len(sys.rulers))
	for i, rc := range sys.rulers {
		reach[i] = map[int]bool{}
		for _, set := range rc.markSets {
			for _, v := range set {
				reach[i][v] = true
				for _, u := range g.Neighbors(v) {
					reach[i][u] = true
				}
			}
		}
	}
	type pairEvent struct{ i, j int }
	var pairs []pairEvent
	for i := range sys.rulers {
		for j := i + 1; j < len(sys.rulers); j++ {
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
	sys.inst = &lll.Instance{
		NumVars:    len(sys.rulers),
		DomainSize: func(r int) int { return len(sys.rulers[r].markSets) },
		NumEvents:  len(pairs),
		Vars: func(e int) []int {
			ev := pairs[e]
			return []int{ev.i, ev.j}
		},
		Bad: func(e int, a []int) bool {
			ev := pairs[e]
			return t.marksConflict(g, sys.phi,
				sys.rulers[ev.i].markSets[a[ev.i]],
				sys.rulers[ev.j].markSets[a[ev.j]])
		},
	}
	return sys, nil
}

// anchorMarkSet applies the Section 7 anchor rule to a candidate group
// (S, S'): the group's smallest-ID node s determines whether one set
// (φ(s) = 2: the set containing s) or both (φ(s) = 3) are marked. The
// result is sorted so downstream processing is order-independent.
func (t ThreeColoring) anchorMarkSet(g *graph.Graph, phi []int, a, b []int) []int {
	all := append(append([]int(nil), a...), b...)
	s := smallestID(g, all)
	var marks []int
	if phi[s] == 2 {
		if containsNode(a, s) {
			marks = append([]int(nil), a...)
		} else {
			marks = append([]int(nil), b...)
		}
	} else {
		marks = all
	}
	sort.Ints(marks)
	return marks
}

// marksConflict reports whether two rulers' mark sets interact: a shared
// node, adjacency (the marked components would merge), or a color-1 node
// collecting marked neighbors from both (its type-1 bit would stop being
// recognizable). Within-set constraints are already guaranteed by the
// feasibility-in-isolation filter.
func (t ThreeColoring) marksConflict(g *graph.Graph, phi []int, setA, setB []int) bool {
	inA := make(map[int]bool, len(setA))
	for _, v := range setA {
		inA[v] = true
	}
	for _, v := range setB {
		if inA[v] {
			return true
		}
		for _, u := range g.Neighbors(v) {
			if inA[u] {
				return true
			}
		}
	}
	// Color-1 nodes adjacent to both sets: two marked neighbors.
	oneSeesA := map[int]bool{}
	for _, v := range setA {
		for _, u := range g.Neighbors(v) {
			if phi[u] == 1 {
				oneSeesA[u] = true
			}
		}
	}
	for _, v := range setB {
		for _, u := range g.Neighbors(v) {
			if phi[u] == 1 && oneSeesA[u] {
				return true
			}
		}
	}
	return false
}

// finish applies the chosen mark sets and runs the prover self-check.
func (t ThreeColoring) finish(g *graph.Graph, sys *selectSystem, choices []int) (local.Advice, error) {
	for r, rc := range sys.rulers {
		for _, v := range rc.markSets[choices[r]] {
			sys.bit[v] = 1
		}
	}
	advice := make(local.Advice, g.N())
	for v, b := range sys.bit {
		advice[v] = bitstr.New(b)
	}
	sol, _, err := t.Decode(g, advice)
	if err != nil {
		return nil, fmt.Errorf("coloring: three-coloring self-check: %w", err)
	}
	if err := lcl.Verify(lcl.Coloring{K: 3}, g, sol); err != nil {
		return nil, fmt.Errorf("coloring: three-coloring self-check: %w", err)
	}
	return advice, nil
}

// EncodeLLL computes the Theorem 7.1 advice with the group choices resolved
// by Moser–Tardos resampling over the explicit selection instance — the
// constructive form of the paper's Section 7 LLL invocation. rng drives the
// resampling; maxResamplings caps the work. Solver metrics go to m; nil
// records nothing.
func (t ThreeColoring) EncodeLLL(g *graph.Graph, rng *rand.Rand, maxResamplings int, m *obs.Collector) (local.Advice, error) {
	sys, err := t.buildSelectSystem(g)
	if err != nil {
		return nil, err
	}
	if len(sys.rulers) == 0 {
		return t.finish(g, sys, nil)
	}
	res, err := lll.Solve(sys.inst, rng, maxResamplings, m)
	if err != nil {
		return nil, fmt.Errorf("coloring: LLL group selection: %w", err)
	}
	return t.finish(g, sys, res.Assignment)
}

// EncodeDet is the derandomized EncodeLLL: group choices are fixed by the
// method of conditional expectations (lll.SolveDeterministic). No RNG — the
// advice is a pure function of the graph, identical across seeds. Solver
// metrics go to m; nil records nothing.
func (t ThreeColoring) EncodeDet(g *graph.Graph, m *obs.Collector) (local.Advice, error) {
	sys, err := t.buildSelectSystem(g)
	if err != nil {
		return nil, err
	}
	if len(sys.rulers) == 0 {
		return t.finish(g, sys, nil)
	}
	res, err := lll.SolveDeterministic(sys.inst, m)
	if err != nil {
		return nil, fmt.Errorf("coloring: deterministic group selection: %w", err)
	}
	return t.finish(g, sys, res.Assignment)
}

// EncodeDecomposed is EncodeDet running ball-by-ball over the selection
// instance's event dependency graph (lll.SolveDecomposed). Also RNG-free.
// Solver metrics go to m; nil records nothing.
func (t ThreeColoring) EncodeDecomposed(g *graph.Graph, m *obs.Collector) (local.Advice, error) {
	sys, err := t.buildSelectSystem(g)
	if err != nil {
		return nil, err
	}
	if len(sys.rulers) == 0 {
		return t.finish(g, sys, nil)
	}
	res, err := lll.SolveDecomposed(sys.inst, m)
	if err != nil {
		return nil, fmt.Errorf("coloring: decomposed group selection: %w", err)
	}
	return t.finish(g, sys, res.Assignment)
}
