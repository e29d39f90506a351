package core

import (
	"fmt"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// OneBitCodec is the Lemma 2 machinery: it converts a variable-length advice
// assignment whose holders are spatially well separated into a uniform
// one-bit-per-node assignment, and back.
//
// Encoding (following Section 4 of the paper): each holder v's payload is
// wrapped in the self-delimiting marker code (header 11110110, blocks
// 110/1110, terminator 0) and written bit-by-bit along a geodesic path
// starting at v — the j-th bit goes to a node at distance exactly j-1 from
// v. All other nodes receive 0.
//
// Decoding is a LOCAL algorithm of radius Radius: a node v recognizes itself
// as a holder if (i) its own bit is 1, (ii) every distance shell around it
// contains at most one 1-node, (iii) all 1-nodes in its radius-Radius view
// lie on a single strictly-distance-increasing path starting at v, and (iv)
// the shell-occupancy string decodes under the marker code. These are the
// membership conditions of the set S' in Section 4; they make interior path
// nodes and bystanders fail while the true holder succeeds.
//
// Requirements checked by Encode: every marker-coded payload fits in Radius
// bits, holders are pairwise farther than 2*Radius+2 apart, and a geodesic
// of the needed length exists at each holder. Encode finishes by running
// Decode and verifying the round trip, so a successful Encode guarantees
// decodability.
type OneBitCodec struct {
	// Radius is the decoding radius R; payloads must marker-encode into at
	// most Radius bits.
	Radius int
}

// MaxPayloadBits returns the largest payload length (pre-encoding) that fits
// in the codec's radius.
func (c OneBitCodec) MaxPayloadBits() int {
	// header + 4 bits per payload bit + terminator <= Radius.
	return (c.Radius - bitstr.Header.Len() - 1) / 4
}

// Encode converts a sparse variable-length assignment into one bit per node.
func (c OneBitCodec) Encode(g *graph.Graph, va VarAdvice) (local.Advice, error) {
	if c.Radius < bitstr.Header.Len()+1 {
		return nil, fmt.Errorf("core: one-bit radius %d below header length", c.Radius)
	}
	holders := make([]int, 0, len(va))
	for v := range va {
		holders = append(holders, v)
	}
	sort.Ints(holders)

	// Spacing check: report the first pair in index order, as a scan of
	// every later holder from every holder would.
	spacing := 2*c.Radius + 2
	isHolder := make([]bool, g.N())
	for _, v := range holders {
		isHolder[v] = true
	}
	var s graph.BFSScratch
	for _, u := range holders {
		w := -1
		for _, x := range g.BFSWithin(u, spacing, &s) {
			if x := int(x); x > u && isHolder[x] && (w == -1 || x < w) {
				w = x
			}
		}
		if w != -1 {
			return nil, fmt.Errorf("core: holders %d and %d at distance %d <= %d", u, w, s.Dist(w), spacing)
		}
	}

	bits := make([]int, g.N()) // all zero
	for _, v := range holders {
		enc := bitstr.MarkerEncode(va[v])
		if enc.Len() > c.Radius {
			return nil, fmt.Errorf("core: payload of holder %d marker-encodes to %d bits > radius %d", v, enc.Len(), c.Radius)
		}
		path, err := geodesicPath(g, v, enc.Len()-1)
		if err != nil {
			return nil, fmt.Errorf("core: holder %d: %w", v, err)
		}
		for j, node := range path {
			bits[node] = enc.Bit(j)
		}
	}

	advice := make(local.Advice, g.N())
	for v, b := range bits {
		advice[v] = bitstr.New(b)
	}

	// Round-trip verification: the prover is centralized, so checking its
	// own work is legitimate and turns subtle decodability bugs into
	// immediate errors.
	decoded, _, err := c.Decode(g, advice)
	if err != nil {
		return nil, fmt.Errorf("core: one-bit self-check decode failed: %w", err)
	}
	if !decoded.Equal(va) {
		return nil, fmt.Errorf("core: one-bit self-check mismatch: encoded %d holders, decoded %d", len(va), len(decoded))
	}
	return advice, nil
}

// geodesicPath returns nodes p_0 = v, p_1, ..., p_length with
// dist(v, p_j) = j and consecutive nodes adjacent, choosing the
// smallest-ID continuation at every step for determinism. It fails if no
// node at distance `length` exists (eccentricity too small).
func geodesicPath(g *graph.Graph, v, length int) ([]int, error) {
	dist := g.BFSFrom(v)
	// Walk forward greedily: from the current node pick the smallest-ID
	// neighbor at the next distance. Because dist is a BFS layering, any
	// node at distance j with a neighbor at distance j+1 extends; a greedy
	// walk can dead-end, so do a DFS with smallest-ID preference.
	path := make([]int, 0, length+1)
	var dfs func(node, depth int) bool
	dfs = func(node, depth int) bool {
		path = append(path, node)
		if depth == length {
			return true
		}
		next := nextByID(g, node, dist, depth+1)
		for _, w := range next {
			if dfs(w, depth+1) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if !dfs(v, 0) {
		return nil, fmt.Errorf("core: no geodesic of length %d from node %d", length, v)
	}
	return path, nil
}

// nextByID returns the neighbors of node at the given BFS distance, sorted
// by ID.
func nextByID(g *graph.Graph, node int, dist []int, d int) []int {
	var out []int
	for _, w := range g.Neighbors(node) {
		if dist[w] == d {
			out = append(out, w)
		}
	}
	g.SortByID(out)
	return out
}

// Decode recovers the variable-length assignment from one-bit advice. It is
// a LOCAL ball algorithm of radius c.Radius; the returned stats carry that
// round count.
func (c OneBitCodec) Decode(g *graph.Graph, advice local.Advice) (VarAdvice, local.Stats, error) {
	if len(advice) != g.N() {
		return nil, local.Stats{}, fmt.Errorf("core: advice length %d for %d nodes", len(advice), g.N())
	}
	for v, s := range advice {
		if s.Len() != 1 {
			return nil, local.Stats{}, fmt.Errorf("core: node %d holds %d bits, want 1", v, s.Len())
		}
	}
	outputs, stats, err := local.RunBall(g, advice, c.Radius, func(view *local.View) any {
		payload, ok := decodeCenter(view)
		if !ok {
			return nil
		}
		return payload
	}, local.RunConfig{})
	if err != nil {
		return nil, stats, err
	}
	va := make(VarAdvice)
	for v, out := range outputs {
		if out != nil {
			va[v] = out.(bitstr.String)
		}
	}
	return va, stats, nil
}

// decodeCenter applies the holder-membership conditions to the view and, if
// they hold, returns the decoded payload.
func decodeCenter(view *local.View) (bitstr.String, bool) {
	if view.Advice[view.Center].Len() != 1 || view.Advice[view.Center].Bit(0) != 1 {
		return bitstr.String{}, false
	}
	// Shell occupancy: shellOne[d] = the unique 1-node at distance d, or -1.
	shellOne := make([]int, view.Radius+1)
	for i := range shellOne {
		shellOne[i] = -1
	}
	var ones []int
	for _, u := range view.Nodes() {
		i := int(u)
		if view.Advice[i].Len() == 1 && view.Advice[i].Bit(0) == 1 {
			d := view.Dist(i)
			if shellOne[d] != -1 {
				return bitstr.String{}, false // two 1s in one shell
			}
			shellOne[d] = i
			ones = append(ones, i)
		}
	}
	// Deepest 1-node.
	maxD := 0
	for d, node := range shellOne {
		if node != -1 {
			maxD = d
		}
	}
	// All 1-nodes must lie on one strictly-distance-increasing path from
	// the center: layered reachability with mandatory waypoints.
	frontier := map[int]bool{view.Center: true}
	for d := 1; d <= maxD; d++ {
		next := map[int]bool{}
		for node := range frontier {
			for _, w := range view.Neighbors(node) {
				if view.Dist(w) == d {
					next[w] = true
				}
			}
		}
		if shellOne[d] != -1 {
			if !next[shellOne[d]] {
				return bitstr.String{}, false
			}
			next = map[int]bool{shellOne[d]: true}
		}
		if len(next) == 0 {
			return bitstr.String{}, false
		}
		frontier = next
	}
	// Derived string: shell occupancy out to the radius.
	s := bitstr.String{}
	for d := 0; d <= view.Radius; d++ {
		if d < len(shellOne) && shellOne[d] != -1 {
			s = s.Append(1)
		} else {
			s = s.Append(0)
		}
	}
	payload, _, err := bitstr.MarkerDecode(s)
	if err != nil {
		return bitstr.String{}, false
	}
	return payload, true
}
