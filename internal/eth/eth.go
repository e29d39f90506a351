// Package eth implements the Section 8 side of the paper: the connection
// between local advice and the Exponential-Time Hypothesis.
//
// The paper's argument has two executable ingredients, both provided here.
//
// First, order invariance: every advice schema can be replaced by one whose
// decoder depends only on the relative order of the identifiers in a view,
// not their numerical values (a Ramsey argument in the paper). For
// bounded-degree graphs an order-invariant radius-T algorithm is a finite
// lookup table over canonicalized views. This package provides the
// canonicalization, an order-invariance checker (run the algorithm before
// and after an order-preserving ID remapping and compare), and a lookup-
// table compiler that materializes an order-invariant algorithm as a table.
//
// Second, the centralized brute-force advice search: if problem Π is
// solvable with β bits of advice per node by decoder 𝒜, then a centralized
// algorithm solves Π in time 2^(βn) · n · s(n) by trying every advice
// assignment and running 𝒜. AdviceSearch implements exactly that loop; the
// E2 experiment measures its exponential growth, which is the quantity ETH
// lower-bounds.
package eth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// CanonicalizeView returns a canonical fingerprint of a view in which IDs
// are replaced by their ranks: two views receive the same fingerprint iff
// they are isomorphic as advice-labeled graphs with the same relative ID
// order and the same center. An order-invariant algorithm is exactly a
// function of this fingerprint.
func CanonicalizeView(view *local.View) string {
	n := view.G.N()
	// Rank nodes by ID.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return view.G.ID(order[a]) < view.G.ID(order[b]) })
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d;center=%d;", n, rank[view.Center])
	// Edges as sorted rank pairs.
	type pair struct{ a, b int }
	pairs := make([]pair, 0, view.G.M())
	for _, e := range view.G.Edges() {
		a, bb := rank[e.U], rank[e.V]
		if a > bb {
			a, bb = bb, a
		}
		pairs = append(pairs, pair{a, bb})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, p := range pairs {
		fmt.Fprintf(&b, "e%d,%d;", p.a, p.b)
	}
	// Per-rank metadata: advice, true degree, distance from center.
	for r := 0; r < n; r++ {
		v := order[r]
		fmt.Fprintf(&b, "v%d:%s:%d:%d;", r, view.Advice[v], view.TrueDegree[v], view.Dist[v])
	}
	return b.String()
}

// CheckOrderInvariant runs algo on g (with the given advice and radius),
// then applies `trials` random order-preserving ID remappings and reruns;
// it reports an error naming the first node whose output changed. Passing
// the check over many trials is evidence (not proof) of order invariance.
func CheckOrderInvariant(g *graph.Graph, advice local.Advice, radius int, algo local.BallAlgorithm, rng *rand.Rand, trials int) error {
	base, _, err := local.RunBall(g, advice, radius, algo, local.RunConfig{})
	if err != nil {
		return err
	}
	for trial := 0; trial < trials; trial++ {
		h := g.Clone()
		graph.RemapIDsOrderPreserving(h, rng)
		out, _, err := local.RunBall(h, advice, radius, algo, local.RunConfig{})
		if err != nil {
			return err
		}
		for v := range out {
			if out[v] != base[v] {
				return fmt.Errorf("eth: node %d output changed under remap trial %d: %v vs %v", v, trial, base[v], out[v])
			}
		}
	}
	return nil
}

// Table is a compiled order-invariant algorithm: canonical view fingerprint
// to output. For bounded-degree graphs and fixed radius the table is
// finite; its size is the s(n)-is-small ingredient of the Section 8 proof.
type Table struct {
	Radius  int
	Entries map[string]any
}

// Compile materializes algo as a lookup table over all views occurring in
// the given graphs. Querying a view not seen during compilation is an
// error, which keeps the table honest: it is only as general as its
// training family.
func Compile(algo local.BallAlgorithm, radius int, graphs []*graph.Graph, advices []local.Advice) (*Table, error) {
	if len(graphs) != len(advices) {
		return nil, fmt.Errorf("eth: %d graphs but %d advice assignments", len(graphs), len(advices))
	}
	t := &Table{Radius: radius, Entries: make(map[string]any)}
	for i, g := range graphs {
		for v := 0; v < g.N(); v++ {
			view := local.BuildView(g, advices[i], v, radius)
			key := CanonicalizeView(view)
			out := algo(view)
			if prev, ok := t.Entries[key]; ok && prev != out {
				return nil, fmt.Errorf("eth: algorithm is not order-invariant: key %q maps to both %v and %v", key, prev, out)
			}
			// Outputs that can never survive the text Save format are
			// rejected here, at compile time, instead of surprising the
			// persistence layer at write time. (The binary codec is immune:
			// every field there is length-prefixed.)
			if err := checkTextSerializable(out); err != nil {
				return nil, fmt.Errorf("eth: node %d of graph %d: %w", v, i, err)
			}
			t.Entries[key] = out
		}
	}
	return t, nil
}

// checkTextSerializable rejects outputs whose natural text rendering would
// corrupt the line-oriented Save format. Only string-shaped outputs can
// smuggle separators; other types are validated against their caller codec
// in Save itself.
func checkTextSerializable(out any) error {
	s, ok := out.(string)
	if !ok {
		if str, ok := out.(fmt.Stringer); ok {
			s = str.String()
		} else {
			return nil
		}
	}
	if strings.ContainsAny(s, " \n") {
		return fmt.Errorf("eth: output %q contains separators the text format cannot carry (use the binary codec)", s)
	}
	return nil
}

// Run executes the compiled table as a ball algorithm.
func (t *Table) Run(g *graph.Graph, advice local.Advice) ([]any, local.Stats, error) {
	// Missing-entry errors are returned as per-node outputs (not captured
	// state): the ball algorithm must stay a pure function of the view now
	// that RunBall fans out over workers.
	outputs, stats, err := local.RunBall(g, advice, t.Radius, func(view *local.View) any {
		out, ok := t.Entries[CanonicalizeView(view)]
		if !ok {
			return fmt.Errorf("eth: view %q not in table", CanonicalizeView(view))
		}
		return out
	}, local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	for _, out := range outputs {
		if err, isErr := out.(error); isErr {
			return nil, stats, err
		}
	}
	return outputs, stats, nil
}

// Decoder is the advice decoder the brute-force search drives: given the
// graph and a candidate advice assignment, it outputs a candidate solution.
type Decoder func(g *graph.Graph, advice local.Advice) (*lcl.Solution, error)

// SearchResult reports a brute-force advice search.
type SearchResult struct {
	Found    bool
	Advice   local.Advice
	Solution *lcl.Solution
	// Attempts is the number of advice assignments tried (up to 2^(βn)).
	Attempts uint64
}

// AdviceSearch is the centralized 2^(βn)·n·s(n) algorithm of Section 8: it
// enumerates every assignment of beta bits per node, decodes, verifies
// against the problem, and returns the first valid assignment. The attempt
// count (and its growth with n) is the experiment's measurement.
func AdviceSearch(p lcl.Problem, g *graph.Graph, beta int, decode Decoder) (SearchResult, error) {
	if beta < 1 || beta > 2 {
		return SearchResult{}, fmt.Errorf("eth: beta must be 1 or 2 for the search, got %d", beta)
	}
	totalBits := beta * g.N()
	if totalBits > 40 {
		return SearchResult{}, fmt.Errorf("eth: 2^%d assignments is beyond the search budget", totalBits)
	}
	var attempts uint64
	for mask := uint64(0); mask < 1<<uint(totalBits); mask++ {
		attempts++
		advice := make(local.Advice, g.N())
		for v := 0; v < g.N(); v++ {
			bits := mask >> uint(beta*v) & (1<<uint(beta) - 1)
			advice[v] = bitstr.FromUint(bits, beta)
		}
		sol, err := decode(g, advice)
		if err != nil {
			continue // this assignment does not decode; try the next
		}
		if lcl.Verify(p, g, sol) == nil {
			return SearchResult{Found: true, Advice: advice, Solution: sol, Attempts: attempts}, nil
		}
	}
	return SearchResult{Found: false, Attempts: attempts}, nil
}

// MISDecoder is the 0-round decoder for MIS used by experiment E2: the
// advice bit is the set-membership indicator. Some advice assignment (the
// indicator of any MIS) always decodes to a valid solution.
func MISDecoder(g *graph.Graph, advice local.Advice) (*lcl.Solution, error) {
	sol := lcl.NewSolution(g)
	for v := 0; v < g.N(); v++ {
		if advice[v].Len() != 1 {
			return nil, fmt.Errorf("eth: node %d holds %d bits", v, advice[v].Len())
		}
		sol.Node[v] = 2 - advice[v].Bit(0)
	}
	return sol, nil
}

// ColoringDecoder returns the 0-round decoder for K-coloring with
// beta = ⌈log2 K⌉ bits: the advice value is the color.
func ColoringDecoder(k int) Decoder {
	return func(g *graph.Graph, advice local.Advice) (*lcl.Solution, error) {
		sol := lcl.NewSolution(g)
		for v := 0; v < g.N(); v++ {
			c := int(advice[v].Uint()) + 1
			if c > k {
				return nil, fmt.Errorf("eth: advice value %d exceeds color count", c)
			}
			sol.Node[v] = c
		}
		return sol, nil
	}
}
