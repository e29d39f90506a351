package lll

import (
	"errors"
	"fmt"

	"localadvice/internal/decomp"
	"localadvice/internal/obs"
)

// This file implements the derandomized solver paths: the method of
// conditional expectations over the compiled event–variable incidence
// (SolveDeterministic), and a decomposition-guided variant that fixes
// variables ball-by-ball over a low-diameter decomposition of the event
// dependency graph (SolveDecomposed), emulating the round structure of the
// distributed derandomization (PAPERS.md: "Distributed derandomization
// revisited"). Neither path takes an RNG: for a fixed instance the output
// is a pure function of the instance, identical across processes, worker
// counts and — unlike Moser–Tardos — seeds.
//
// The pessimistic estimator is the union bound Φ = Σ_j P(bad_j | prefix),
// with each conditional probability computed exactly by enumerating the
// product of the event's unassigned variable domains (events have small
// arity in every instance the repo builds; enumeration is budgeted and a
// typed error reports instances that exceed it). Fixing each variable to
// the value minimizing Φ never increases it, so after the walk the number
// of violated events is at most the initial expectation. That bound can
// still be ≥ 1, so a deterministic repair pass follows: repeatedly take
// the lowest-indexed violated event and exhaustively re-assign its
// variables to strictly decrease the global violated count, which
// terminates in at most NumEvents moves or fails with a typed error —
// never silently.

// estimatorBudget caps the number of completions enumerated for a single
// conditional-probability or repair computation (the product of the free
// variables' domain sizes). Instances whose events exceed it get
// ErrEstimatorBudget instead of an unbounded enumeration.
const estimatorBudget = 1 << 16

// decomposedBeta and decomposedSeed are the fixed internal parameters of
// SolveDecomposed's event-graph decomposition. They are constants — not
// caller inputs — so the decomposed path stays seed-independent: the
// decomposition is a pure function of the event dependency graph.
const (
	decomposedBeta = 0.2
	decomposedSeed = 0x10cad
)

// ErrEstimatorBudget tags instances whose events have too many unassigned
// variables (or too large domains) for exact conditional-expectation
// enumeration.
var ErrEstimatorBudget = errors.New("lll: estimator enumeration budget exceeded")

// ErrRepairStall tags deterministic runs whose repair pass could not
// strictly decrease the violated-event count — the instance has a locally
// stuck configuration the conditional-expectations walk cannot escape
// (e.g. an unsatisfiable event).
var ErrRepairStall = errors.New("lll: deterministic repair stalled")

// estimator is the working state of the conditional-expectations walk:
// assignment holds -1 for unassigned variables, scratch mirrors assignment
// for assigned variables and holds trial values for the free variables of
// the event currently being enumerated (Bad(e, ·) reads only Vars(e), per
// the Instance contract).
type estimator struct {
	in          *Instance
	c           *compiled
	assignment  []int
	scratch     []int
	stamp       []int // per-event dedup stamps (events can repeat in eventsOf)
	stampGen    int
	freeBuf     []int
	evaluations int
}

func newEstimator(in *Instance, c *compiled) *estimator {
	st := &estimator{
		in:         in,
		c:          c,
		assignment: make([]int, in.NumVars),
		scratch:    make([]int, in.NumVars),
		stamp:      make([]int, in.NumEvents),
	}
	for v := range st.assignment {
		st.assignment[v] = -1
	}
	for e := range st.stamp {
		st.stamp[e] = -1
	}
	return st
}

// freeVars collects the distinct unassigned variables of event e (Vars may
// list a variable more than once) into freeBuf.
func (st *estimator) freeVars(e int) []int {
	free := st.freeBuf[:0]
	for _, v := range st.c.vars(e) {
		if st.assignment[v] != -1 {
			continue
		}
		dup := false
		for _, u := range free {
			if u == v {
				dup = true
				break
			}
		}
		if !dup {
			free = append(free, v)
		}
	}
	st.freeBuf = free
	return free
}

// enumerate runs visit over every completion of the free variables (values
// written into scratch), in odometer order with free[0] fastest — so
// completion 0 is the all-zero assignment and ties resolve toward
// lexicographically smaller values. It returns ErrEstimatorBudget when the
// completion count exceeds the budget.
func (st *estimator) enumerate(free []int, visit func()) error {
	total := 1
	for _, v := range free {
		total *= st.c.domains[v]
		if total > estimatorBudget {
			return fmt.Errorf("%w: %d free variables need more than %d completions",
				ErrEstimatorBudget, len(free), estimatorBudget)
		}
	}
	for idx := 0; idx < total; idx++ {
		rem := idx
		for _, v := range free {
			st.scratch[v] = rem % st.c.domains[v]
			rem /= st.c.domains[v]
		}
		visit()
	}
	return nil
}

// condProb returns P(bad_e | current partial assignment): the fraction of
// completions of e's unassigned variables for which Bad holds.
func (st *estimator) condProb(e int) (float64, error) {
	free := st.freeVars(e)
	if len(free) == 0 {
		st.evaluations++
		if st.in.Bad(e, st.scratch) {
			return 1, nil
		}
		return 0, nil
	}
	bad, total := 0, 0
	err := st.enumerate(free, func() {
		st.evaluations++
		total++
		if st.in.Bad(e, st.scratch) {
			bad++
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(bad) / float64(total), nil
}

// fixVar assigns variable v the domain value minimizing the summed
// conditional probability of its incident events (ties toward the smallest
// value — the deterministic tie-break rule of DESIGN.md decision 12).
// Variables with no incident events take value 0.
func (st *estimator) fixVar(v int) error {
	best, bestScore := 0, -1.0
	for x := 0; x < st.c.domains[v]; x++ {
		st.assignment[v] = x
		st.scratch[v] = x
		score := 0.0
		st.stampGen++
		for _, e := range st.c.eventsOf(v) {
			if st.stamp[e] == st.stampGen {
				continue
			}
			st.stamp[e] = st.stampGen
			p, err := st.condProb(e)
			if err != nil {
				st.assignment[v] = -1
				return err
			}
			score += p
		}
		if bestScore < 0 || score < bestScore {
			best, bestScore = x, score
		}
	}
	st.assignment[v] = best
	st.scratch[v] = best
	return nil
}

// repair is the deterministic cleanup pass: while any event is violated,
// scan the violated events in index order and accept, for the first event
// that admits one, the joint re-assignment of its variables minimizing the
// violated count among the events sharing a variable with it (ties toward
// lexicographically smaller values). Each accepted move strictly decreases
// the global violated count, so the pass performs at most NumEvents
// accepted moves; when no violated event admits a strictly improving move
// the configuration is locally stuck and repair returns ErrRepairStall.
func (st *estimator) repair() (int, error) {
	in := st.in
	violated := make([]bool, in.NumEvents)
	remaining := 0
	for e := 0; e < in.NumEvents; e++ {
		st.evaluations++
		if in.Bad(e, st.scratch) {
			violated[e] = true
			remaining++
		}
	}
	repairs := 0
	for remaining > 0 {
		improved := false
		for event := 0; event < in.NumEvents && remaining > 0; event++ {
			if !violated[event] {
				continue
			}
			ok, err := st.repairMove(event, violated, &remaining)
			if err != nil {
				return repairs, err
			}
			if ok {
				improved = true
				repairs++
			}
		}
		if remaining > 0 && !improved {
			lowest := -1
			for e, bad := range violated {
				if bad {
					lowest = e
					break
				}
			}
			return repairs, fmt.Errorf("%w: no single-event move improves on %d violated events (lowest event %d)",
				ErrRepairStall, remaining, lowest)
		}
	}
	return repairs, nil
}

// repairMove attempts the joint re-assignment of one violated event's
// variables. It accepts (and applies) the move only when the best completion
// strictly decreases the violated count among the affected events, updating
// violated/remaining; otherwise the prior assignment is restored untouched.
func (st *estimator) repairMove(event int, violated []bool, remaining *int) (bool, error) {
	in, c := st.in, st.c
	// The full variable set of the event is re-assigned jointly, so mark
	// them all free for the enumeration.
	vars := c.vars(event)
	saved := make([]int, len(vars))
	for i, v := range vars {
		saved[i] = st.assignment[v]
		st.assignment[v] = -1
	}
	free := st.freeVars(event)
	restore := func() {
		for i, v := range vars {
			st.assignment[v] = saved[i]
			st.scratch[v] = saved[i]
		}
	}
	// affected: the events whose status can change (dedup'd).
	st.stampGen++
	var affected []int
	for _, v := range free {
		for _, e := range c.eventsOf(v) {
			if st.stamp[e] != st.stampGen {
				st.stamp[e] = st.stampGen
				affected = append(affected, e)
			}
		}
	}
	curBad := 0
	for _, e := range affected {
		if violated[e] {
			curBad++
		}
	}
	bestBad := -1
	bestVals := make([]int, len(free))
	err := st.enumerate(free, func() {
		bad := 0
		for _, e := range affected {
			st.evaluations++
			if in.Bad(e, st.scratch) {
				bad++
			}
		}
		if bestBad < 0 || bad < bestBad {
			bestBad = bad
			for i, v := range free {
				bestVals[i] = st.scratch[v]
			}
		}
	})
	if err != nil {
		restore()
		return false, err
	}
	if bestBad >= curBad {
		restore()
		return false, nil
	}
	for i, v := range free {
		st.assignment[v] = bestVals[i]
		st.scratch[v] = bestVals[i]
	}
	for _, e := range affected {
		st.evaluations++
		nowBad := in.Bad(e, st.scratch)
		if nowBad != violated[e] {
			violated[e] = nowBad
			if nowBad {
				*remaining++
			} else {
				*remaining--
			}
		}
	}
	return true, nil
}

// SolveDeterministic derandomizes Solve via the method of conditional
// expectations: variables are fixed in index order, each to the value
// minimizing the union-bound pessimistic estimator Σ_j P(bad_j | prefix)
// over the compiled event–variable incidence, followed by the strictly
// decreasing repair pass. It takes no RNG: the output is a pure function of
// the instance. On success every event satisfies Bad(j, ·) == false.
//
// It reports into m (nil records nothing): "lll.events" (instance size),
// "lll.evaluations" (Bad-predicate calls — the deterministic path's work
// measure, comparable to the randomized path's evaluations) and
// "lll.repairs" (cleanup moves after the conditional-expectations walk; 0
// whenever the walk alone already avoided every event).
func SolveDeterministic(in *Instance, m *obs.Collector) (Result, error) {
	c, err := in.compile()
	if err != nil {
		return Result{}, err
	}
	st := newEstimator(in, c)
	for v := 0; v < in.NumVars; v++ {
		if err := st.fixVar(v); err != nil {
			return Result{}, err
		}
	}
	repairs, err := st.repair()
	if err != nil {
		return Result{}, err
	}
	if m.Enabled() {
		m.Emit("lll.events", "", int64(in.NumEvents))
		m.Emit("lll.evaluations", "", int64(st.evaluations))
		m.Emit("lll.repairs", "", int64(repairs))
	}
	return Result{Assignment: st.assignment, Evaluations: st.evaluations, Repairs: repairs}, nil
}

// SolveDecomposed is the decomposition-guided deterministic path: it builds
// the event dependency graph (events adjacent iff they share a variable),
// decomposes it into low-diameter balls with decomp.Decompose under fixed
// internal parameters, and runs the conditional-expectations walk
// ball-by-ball — first the variables all of whose incident events lie in a
// single ball (in ball order, emulating the parallel per-cluster rounds of
// the distributed derandomization), then the cut variables spanning several
// balls in a deterministic second pass, then the same repair pass as
// SolveDeterministic. Like SolveDeterministic it takes no RNG; the two
// paths may fix variables in different orders and so may return different
// (but individually deterministic and always Bad-free) assignments.
//
// Beyond SolveDeterministic's metrics it reports "lll.balls" (event-graph
// decomposition balls) and "lll.cut_vars" (variables deferred to the
// second pass) into m.
func SolveDecomposed(in *Instance, m *obs.Collector) (Result, error) {
	c, err := in.compile()
	if err != nil {
		return Result{}, err
	}
	eg, err := decomp.EventGraph(in.NumEvents, in.Vars)
	if err != nil {
		return Result{}, fmt.Errorf("lll: event graph: %w", err)
	}
	st := newEstimator(in, c)
	// varBall[v]: the ball containing every event incident to v, or -1 for
	// cut variables (incident events in several balls) and for variables
	// with no events at all (fixed trivially in the second pass).
	varBall := make([]int32, in.NumVars)
	balls := 0
	cutVars := 0
	if in.NumEvents > 0 {
		dec, err := decomp.Decompose(eg, decomposedBeta, decomposedSeed)
		if err != nil {
			return Result{}, fmt.Errorf("lll: event-graph decomposition: %w", err)
		}
		balls = dec.Balls()
		for v := 0; v < in.NumVars; v++ {
			varBall[v] = -1
			for i, e := range c.eventsOf(v) {
				b := dec.Ball[e]
				if i == 0 {
					varBall[v] = b
				} else if varBall[v] != b {
					varBall[v] = -1
					break
				}
			}
			if varBall[v] == -1 && len(c.eventsOf(v)) > 0 {
				cutVars++
			}
		}
	} else {
		for v := range varBall {
			varBall[v] = -1
		}
	}
	// Pass 1: ball-internal variables, ball by ball (index order within a
	// ball). Pass 2: cut variables and event-free variables, in index order.
	for b := 0; b < balls; b++ {
		for v := 0; v < in.NumVars; v++ {
			if varBall[v] == int32(b) {
				if err := st.fixVar(v); err != nil {
					return Result{}, err
				}
			}
		}
	}
	for v := 0; v < in.NumVars; v++ {
		if st.assignment[v] == -1 {
			if err := st.fixVar(v); err != nil {
				return Result{}, err
			}
		}
	}
	repairs, err := st.repair()
	if err != nil {
		return Result{}, err
	}
	if m.Enabled() {
		m.Emit("lll.events", "", int64(in.NumEvents))
		m.Emit("lll.evaluations", "", int64(st.evaluations))
		m.Emit("lll.repairs", "", int64(repairs))
		m.Emit("lll.balls", "", int64(balls))
		m.Emit("lll.cut_vars", "", int64(cutVars))
	}
	return Result{Assignment: st.assignment, Evaluations: st.evaluations, Repairs: repairs}, nil
}
