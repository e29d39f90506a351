package graph

import (
	"math/rand"
	"sort"
)

// The LOCAL model assumes unique identifiers from {1, ..., poly(n)}. The
// helpers below install the identifier regimes used by the experiments:
// sequential (the default), a random permutation of 1..n, and "spread" IDs
// sampled from a polynomially larger range — the latter matters for
// order-invariance experiments (Section 8), where algorithms must not depend
// on numerical ID values, only on their relative order.

// AssignSequentialIDs installs IDs 1..n in index order.
func AssignSequentialIDs(g *Graph) {
	if err := g.SetIDs(sequentialIDs(g.N())); err != nil {
		panic(err)
	}
}

// sequentialIDs returns the IDs 1..n.
func sequentialIDs(n int) []int64 {
	ids := make([]int64, n)
	for v := range ids {
		ids[v] = int64(v + 1)
	}
	return ids
}

// AssignPermutedIDs installs a uniformly random permutation of 1..n.
func AssignPermutedIDs(g *Graph, rng *rand.Rand) {
	perm := rng.Perm(g.N())
	ids := make([]int64, g.N())
	for v, p := range perm {
		ids[v] = int64(p + 1)
	}
	if err := g.SetIDs(ids); err != nil {
		panic(err)
	}
}

// AssignSpreadIDs installs distinct random IDs from {1, ..., n^3}, the
// canonical poly(n) ID space.
func AssignSpreadIDs(g *Graph, rng *rand.Rand) {
	n := int64(g.N())
	space := n * n * n
	if space < n {
		space = n
	}
	used := make(map[int64]bool, g.N())
	ids := make([]int64, g.N())
	for v := range ids {
		for {
			id := 1 + rng.Int63n(space)
			if !used[id] {
				used[id] = true
				ids[v] = id
				break
			}
		}
	}
	if err := g.SetIDs(ids); err != nil {
		panic(err)
	}
}

// RemapIDsOrderPreserving replaces the graph's IDs by new distinct values
// with the same relative order (the i-th smallest ID stays i-th smallest),
// using values spread pseudo-randomly across {1, ..., 1000*n}. Used to test
// order invariance: an order-invariant algorithm must produce identical
// output before and after remapping.
func RemapIDsOrderPreserving(g *Graph, rng *rand.Rand) {
	n := g.N()
	// Draw n distinct values and sort them; assign by rank of old ID.
	space := int64(1000 * n)
	if space < int64(n) {
		space = int64(n)
	}
	used := make(map[int64]bool, n)
	vals := make([]int64, 0, n)
	for len(vals) < n {
		v := 1 + rng.Int63n(space)
		if !used[v] {
			used[v] = true
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	// Rank the old IDs.
	ids := make([]int64, n)
	for rank, v := range g.NodesByID() {
		ids[v] = vals[rank]
	}
	if err := g.SetIDs(ids); err != nil {
		panic(err)
	}
}
