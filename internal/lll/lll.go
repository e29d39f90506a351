// Package lll implements the constructive Lovász Local Lemma via
// Moser–Tardos resampling.
//
// The paper invokes the (existential) LLL twice: in Section 5 to shift the
// marked nodes of the balanced-orientation schema so that bit-holders from
// different cycles stay far apart, and in Section 7 to choose, per ruling-set
// node, the Qr element whose marked sets avoid sharing color-1 neighbors.
// Both proofs only need the existence of an assignment avoiding all bad
// events; this package finds such an assignment constructively. Under the
// symmetric LLL condition e·p·(d+1) <= 1 the Moser–Tardos algorithm
// terminates after an expected number of resamplings linear in the number of
// events, and in practice far below the configured cap.
//
// Solve is deterministic for a fixed seed: the violated event to resample is
// always the one with the lowest index (correctness of Moser–Tardos does not
// depend on the selection rule, so we fix the rule that makes runs
// reproducible and results independent of map iteration order). Violated
// events are tracked by a dense boolean array plus a lazy min-heap of
// candidate indices, and the variable lists of all events are precomputed
// once, so a resampling step costs O(affected events · cost of Bad) with no
// map traffic on the hot path.
package lll

import (
	"errors"
	"fmt"
	"math/rand"

	"localadvice/internal/obs"
)

// ErrResamplingCap tags runs that exhausted their resampling budget. The
// concrete error is a *ResamplingCapError carrying the event that was about
// to be resampled and the count reached, so callers can report the stuck
// point without parsing the message:
//
//	var cap *lll.ResamplingCapError
//	if errors.As(err, &cap) { ... cap.Event, cap.Resamplings ... }
var ErrResamplingCap = errors.New("lll: resampling cap exceeded")

// ResamplingCapError is the typed form of ErrResamplingCap: Solve hit
// maxResamplings while Event was still violated (and about to be resampled
// next), after Resamplings resampling steps with Violated events still bad.
type ResamplingCapError struct {
	Event       int // lowest-indexed violated event at the moment the cap hit
	Resamplings int // resampling steps performed (== the configured cap)
	Violated    int // events still violated
}

func (e *ResamplingCapError) Error() string {
	return fmt.Sprintf("lll: exceeded %d resamplings with %d events still violated (next event %d)",
		e.Resamplings, e.Violated, e.Event)
}

func (e *ResamplingCapError) Unwrap() error { return ErrResamplingCap }

// Instance describes a constraint-satisfaction instance for Moser–Tardos.
// Variables are indexed 0..NumVars-1; variable i takes values in
// {0, ..., DomainSize(i)-1}. Events are indexed 0..NumEvents-1; event j is
// "bad" for an assignment when Bad(j, assignment) is true, and depends
// exactly on the variables Vars(j).
type Instance struct {
	NumVars    int
	DomainSize func(v int) int
	NumEvents  int
	Vars       func(event int) []int
	Bad        func(event int, assignment []int) bool
}

// compiled is the slice-backed form of an Instance: domains and the
// event-variable incidence in CSR layout, so the solver and
// DependencyDegree never call the Vars/DomainSize callbacks on a hot path.
type compiled struct {
	domains []int
	// evVars/evOff: Vars(e) is evVars[evOff[e]:evOff[e+1]], copied verbatim
	// (order and duplicates preserved, so resampling consumes rng draws
	// exactly as a direct Vars(e) loop would).
	evVars []int
	evOff  []int
	// veEvents/veOff: the events touching variable v, in increasing event
	// order (the reverse CSR of evVars).
	veEvents []int
	veOff    []int
}

// compile validates the instance description and precomputes its slice form.
func (in *Instance) compile() (*compiled, error) {
	if in.NumVars < 0 || in.NumEvents < 0 {
		return nil, fmt.Errorf("lll: negative sizes")
	}
	if in.DomainSize == nil || in.Vars == nil || in.Bad == nil {
		return nil, fmt.Errorf("lll: nil callback")
	}
	c := &compiled{
		domains: make([]int, in.NumVars),
		evOff:   make([]int, in.NumEvents+1),
		veOff:   make([]int, in.NumVars+1),
	}
	for v := 0; v < in.NumVars; v++ {
		c.domains[v] = in.DomainSize(v)
		if c.domains[v] < 1 {
			return nil, fmt.Errorf("lll: variable %d has empty domain", v)
		}
	}
	for e := 0; e < in.NumEvents; e++ {
		vars := in.Vars(e)
		for _, v := range vars {
			if v < 0 || v >= in.NumVars {
				return nil, fmt.Errorf("lll: event %d references variable %d out of range", e, v)
			}
			c.veOff[v+1]++
		}
		c.evVars = append(c.evVars, vars...)
		c.evOff[e+1] = len(c.evVars)
	}
	for v := 0; v < in.NumVars; v++ {
		c.veOff[v+1] += c.veOff[v]
	}
	c.veEvents = make([]int, len(c.evVars))
	fill := append([]int(nil), c.veOff[:in.NumVars]...)
	for e := 0; e < in.NumEvents; e++ {
		for _, v := range c.evVars[c.evOff[e]:c.evOff[e+1]] {
			c.veEvents[fill[v]] = e
			fill[v]++
		}
	}
	return c, nil
}

func (c *compiled) vars(e int) []int     { return c.evVars[c.evOff[e]:c.evOff[e+1]] }
func (c *compiled) eventsOf(v int) []int { return c.veEvents[c.veOff[v]:c.veOff[v+1]] }

// Result reports the outcome of a solver call. Resamplings counts
// Moser–Tardos resampling steps (always 0 on the deterministic paths);
// Evaluations counts Bad-predicate calls — the work unit shared by the
// randomized and deterministic solvers, which is what E12 compares;
// Repairs counts the local-search moves of the deterministic paths'
// cleanup pass (always 0 for Solve).
type Result struct {
	Assignment  []int
	Resamplings int
	Evaluations int
	Repairs     int
}

// minHeap is a binary min-heap of event indices with no deduplication; the
// solver skips stale entries on pop (lazy deletion).
type minHeap []int32

func (h *minHeap) push(e int32) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *minHeap) pop() int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s[l] < s[smallest] {
			smallest = l
		}
		if r < len(s) && s[r] < s[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	*h = s
	return top
}

// Solve runs Moser–Tardos resampling: sample every variable uniformly, then
// while some bad event holds, resample the variables of the lowest-indexed
// violated event. For a fixed rng seed the run — assignment, resampling
// count, and the sequence of resampled events — is fully deterministic.
// maxResamplings caps the work; if exceeded, an error is returned (under the
// LLL condition this indicates the cap was far too small or the instance
// violates the condition).
//
// On success Solve reports into m: "lll.resamplings" (the resampling count
// — the paper's expected-linear work bound, measured), "lll.evaluations"
// (Bad-predicate calls, the work unit shared with the deterministic
// solvers), "lll.initial_violated" (bad events after the initial uniform
// sample) and "lll.events" (instance size). A nil collector records
// nothing and costs nothing.
func Solve(in *Instance, rng *rand.Rand, maxResamplings int, m *obs.Collector) (Result, error) {
	c, err := in.compile()
	if err != nil {
		return Result{}, err
	}
	assignment := make([]int, in.NumVars)
	for v := range assignment {
		assignment[v] = rng.Intn(c.domains[v])
	}

	// violated[e] is the ground truth; heap holds every violated event at
	// least once (plus possibly stale copies, skipped on pop). A sorted
	// array is a valid binary min-heap, so the initial scan needs no sifting.
	violated := make([]bool, in.NumEvents)
	heap := make(minHeap, 0, in.NumEvents)
	evaluations := 0
	for e := 0; e < in.NumEvents; e++ {
		evaluations++
		if in.Bad(e, assignment) {
			violated[e] = true
			heap = append(heap, int32(e))
		}
	}
	if m.Enabled() {
		m.Emit("lll.events", "", int64(in.NumEvents))
		m.Emit("lll.initial_violated", "", int64(len(heap)))
	}
	// seen stamps deduplicate the neighbor recheck after a resampling (an
	// event sharing several variables with the resampled one is rechecked
	// once, not once per shared variable).
	seen := make([]int, in.NumEvents)
	for i := range seen {
		seen[i] = -1
	}

	resamplings := 0
	for len(heap) > 0 {
		event := int(heap.pop())
		if !violated[event] {
			continue // stale heap entry
		}
		if resamplings >= maxResamplings {
			still := 0
			for _, bad := range violated {
				if bad {
					still++
				}
			}
			return Result{}, &ResamplingCapError{Event: event, Resamplings: resamplings, Violated: still}
		}
		vars := c.vars(event)
		for _, v := range vars {
			assignment[v] = rng.Intn(c.domains[v])
		}
		// The popped entry was consumed, so recompute the event's status
		// from scratch along with its neighbors'.
		violated[event] = false
		resamplings++
		for _, v := range vars {
			for _, e := range c.eventsOf(v) {
				if seen[e] == resamplings {
					continue
				}
				seen[e] = resamplings
				evaluations++
				if in.Bad(e, assignment) {
					if !violated[e] {
						violated[e] = true
						heap.push(int32(e))
					}
				} else {
					violated[e] = false
				}
			}
		}
	}
	if m.Enabled() {
		m.Emit("lll.resamplings", "", int64(resamplings))
		m.Emit("lll.evaluations", "", int64(evaluations))
	}
	return Result{Assignment: assignment, Resamplings: resamplings, Evaluations: evaluations}, nil
}

// SymmetricConditionHolds reports whether e·p·(d+1) <= 1 for the given
// per-event probability bound p and dependency-degree bound d — the
// hypothesis of Lemma 3.1 in the paper (Shearer/Spencer/Erdős–Lovász form).
func SymmetricConditionHolds(p float64, d int) bool {
	const e = 2.718281828459045
	return e*p*float64(d+1) <= 1
}

// DependencyDegree computes the maximum, over events, of the number of other
// events sharing at least one variable — the d of the symmetric LLL. It uses
// the compiled slice-backed incidence with stamp-based deduplication, so the
// cost is linear in the size of the dependency relation.
func DependencyDegree(in *Instance) int {
	c, err := in.compile()
	if err != nil {
		return 0
	}
	seen := make([]int, in.NumEvents)
	for i := range seen {
		seen[i] = -1
	}
	maxDeg := 0
	for e := 0; e < in.NumEvents; e++ {
		deg := 0
		for _, v := range c.vars(e) {
			for _, f := range c.eventsOf(v) {
				if f == e || seen[f] == e {
					continue
				}
				seen[f] = e
				deg++
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	return maxDeg
}
