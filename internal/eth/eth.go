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
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"

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
//
// The fingerprint bytes are a persisted contract: every text and ETB1 table
// in a persist store is keyed by them, so a changed byte would make every
// stored table miss. The format is
//
//	n=<n>;center=<rank>;e<a>,<b>;...v<rank>:<advice>:<true degree>:<dist>;...
//
// with one e-item per edge as its sorted rank pair, the pairs in increasing
// order, and one v-item per node in rank order.
func CanonicalizeView(view *local.View) string {
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	return string(sc.key(view))
}

// canonScratch is the reusable working state of one fingerprint rendering:
// the ball's nodes in rank (ID) order, the edges as rank pairs, and the
// byte buffer the key is written into. The slices size themselves to the
// largest view seen, so a worker rendering view after view stops
// allocating. A canonScratch is not safe for concurrent use; callers take
// one from canonPool per view and return it when done with the key.
type canonScratch struct {
	ranked []rankedNode
	pairs  []rankPair
	buf    []byte
}

// rankedNode is a view node with its ID; a slice sorted by ID lists the
// nodes in rank order.
type rankedNode struct {
	id   int64
	node int
}

// rankPair is an edge as the ranks of its endpoints, a < b.
type rankPair struct{ a, b int }

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// key renders view's fingerprint into sc.buf and returns it; the bytes are
// valid until sc's next key call. It reads the ball through the view's
// methods: the nodes, then each node's visible neighbors.
func (sc *canonScratch) key(view *local.View) []byte {
	nodes := view.Nodes()
	n := len(nodes)
	// Rank nodes by ID (IDs within a graph are distinct, so the order is
	// total and does not depend on the sort algorithm).
	sc.ranked = sc.ranked[:0]
	for _, u := range nodes {
		sc.ranked = append(sc.ranked, rankedNode{id: view.ID(int(u)), node: int(u)})
	}
	slices.SortFunc(sc.ranked, func(p, q rankedNode) int { return cmp.Compare(p.id, q.id) })
	rank := func(u int) int {
		r, _ := slices.BinarySearchFunc(sc.ranked, view.ID(u), func(p rankedNode, id int64) int { return cmp.Compare(p.id, id) })
		return r
	}
	// Edges as sorted rank pairs, each visible edge taken from its
	// lower-ranked endpoint.
	sc.pairs = sc.pairs[:0]
	for a, rn := range sc.ranked {
		for _, w := range view.Neighbors(rn.node) {
			if b := rank(w); b > a {
				sc.pairs = append(sc.pairs, rankPair{a, b})
			}
		}
	}
	slices.SortFunc(sc.pairs, func(p, q rankPair) int {
		return cmp.Or(cmp.Compare(p.a, q.a), cmp.Compare(p.b, q.b))
	})

	b := append(sc.buf[:0], "n="...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ";center="...)
	b = strconv.AppendInt(b, int64(rank(view.Center)), 10)
	b = append(b, ';')
	for _, p := range sc.pairs {
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(p.a), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.b), 10)
		b = append(b, ';')
	}
	// Per-rank metadata: advice, true degree, distance from center.
	for r, rn := range sc.ranked {
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ':')
		adv := view.Advice[rn.node]
		for i := 0; i < adv.Len(); i++ {
			b = append(b, '0'+byte(adv.Bit(i)))
		}
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(view.TrueDegree(rn.node)), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(view.Dist(rn.node)), 10)
		b = append(b, ';')
	}
	sc.buf = b
	return b
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
//
// The views are built by the ball engine (local.RunBall), the same one
// Table.Run uses, so algo runs on its workers: it must be a pure function
// of the view, may be called concurrently, and must not keep the view
// (see local.BallAlgorithm). The per-node results are merged in graph and
// node order, so the conflict or unserializable output reported is the
// first one in that order. Advice that does not cover its graph and a
// negative radius are RunBall's errors (wrapping local.ErrAdviceLength and
// local.ErrNegativeRadius), returned with the graph's index.
func Compile(algo local.BallAlgorithm, radius int, graphs []*graph.Graph, advices []local.Advice) (*Table, error) {
	if len(graphs) != len(advices) {
		return nil, fmt.Errorf("eth: %d graphs but %d advice assignments", len(graphs), len(advices))
	}
	keyed := func(view *local.View) any {
		sc := canonPool.Get().(*canonScratch)
		defer canonPool.Put(sc)
		return compiledNode{key: string(sc.key(view)), out: algo(view)}
	}
	t := &Table{Radius: radius, Entries: make(map[string]any)}
	for i, g := range graphs {
		results, _, err := local.RunBall(g, advices[i], radius, keyed, local.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("eth: graph %d: %w", i, err)
		}
		for _, res := range results {
			key, out := res.(compiledNode).key, res.(compiledNode).out
			if prev, ok := t.Entries[key]; ok && prev != out {
				return nil, fmt.Errorf("eth: algorithm is not order-invariant: key %q maps to both %v and %v", key, prev, out)
			}
			t.Entries[key] = out
		}
	}
	return t, nil
}

// compiledNode is one node's result during Compile: its view's fingerprint
// and algo's output on that view.
type compiledNode struct {
	key string
	out any
}

// Run executes the compiled table as a ball algorithm.
func (t *Table) Run(g *graph.Graph, advice local.Advice) ([]any, local.Stats, error) {
	outputs, stats, err := local.RunBall(g, advice, t.Radius, t.lookup, local.RunConfig{})
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

// lookup is Run's ball algorithm: the table's output for the view, or an
// error naming a view the table does not hold. The error is the node's
// output rather than captured state, so lookup stays a pure function of the
// view on RunBall's workers. The fingerprint is rendered into pooled
// scratch and looked up without being copied, so a hit allocates nothing.
func (t *Table) lookup(view *local.View) any {
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	key := sc.key(view)
	out, ok := t.Entries[string(key)]
	if !ok {
		return fmt.Errorf("eth: view %q not in table", key)
	}
	return out
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
