package core

import (
	"fmt"
	"math/bits"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// GroupedOneBitCodec extends the Lemma 2 conversion to variable-length
// schemas whose bit-holding nodes may sit arbitrarily close together — the
// situation Lemma 1 composition produces (e.g. the adjacent marked pairs of
// the orientation schema inside the splitting pipeline).
//
// Holders within GroupRadius of each other are merged into a group; the
// group's payloads are concatenated into a single super-payload stored at
// the group's smallest-ID member (the representative), with each member
// addressed by its rank in the ID-sorted ball of radius addrRadius around
// the representative — a Δ- and radius-bounded address, so the advice stays
// independent of n. The super-payload rides the ordinary one-bit path
// encoding of OneBitCodec; only the (sparse) representatives must satisfy
// the pairwise-spacing requirement.
type GroupedOneBitCodec struct {
	// Radius is the decode radius of the underlying path code; every
	// group's super-payload must marker-encode into at most Radius bits.
	Radius int
	// GroupRadius is the proximity threshold for merging holders.
	GroupRadius int
}

// lenWidth is the fixed width of the per-member payload-length field;
// per-holder advice payloads in this codebase are at most a couple of
// tagged records (well under 256 bits), and a narrow field keeps the
// super-payload compact — important because the one-bit path code expands
// every payload bit into ~4 nodes.
const lenWidth = 8

// addrRadius bounds how far a member may sit from its group's
// representative: proximity chains of holders can stretch a group, so the
// address ball is wider than the merge threshold.
func (c GroupedOneBitCodec) addrRadius() int { return 4 * c.GroupRadius }

func (c GroupedOneBitCodec) validate() error {
	if c.GroupRadius < 1 {
		return fmt.Errorf("core: grouped codec needs GroupRadius >= 1, got %d", c.GroupRadius)
	}
	if c.Radius < c.addrRadius()+bitstr.Header.Len()+1 {
		return fmt.Errorf("core: grouped codec radius %d too small for its address ball", c.Radius)
	}
	return nil
}

// groups partitions the holders into proximity groups (transitive closure
// of "within GroupRadius"), each sorted by ID with the representative
// first.
func (c GroupedOneBitCodec) groups(g *graph.Graph, va VarAdvice) ([][]int, error) {
	holders := make([]int, 0, len(va))
	for v := range va {
		holders = append(holders, v)
	}
	g.SortByID(holders)
	parent := map[int]int{}
	var find func(v int) int
	find = func(v int) int {
		if parent[v] == v {
			return v
		}
		parent[v] = find(parent[v])
		return parent[v]
	}
	for _, v := range holders {
		parent[v] = v
	}
	var s graph.BFSScratch
	for _, u := range holders {
		for _, w := range g.BFSWithin(u, c.GroupRadius, &s) {
			if _, ok := va[int(w)]; ok {
				parent[find(u)] = find(int(w))
			}
		}
	}
	byRoot := map[int][]int{}
	for _, v := range holders {
		r := find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	var out [][]int
	for _, members := range byRoot {
		g.SortByID(members)
		out = append(out, members)
	}
	sort.Slice(out, func(a, b int) bool { return g.ID(out[a][0]) < g.ID(out[b][0]) })
	return out, nil
}

// addrBall returns the ID-sorted ball of the address radius around rep.
func (c GroupedOneBitCodec) addrBall(g *graph.Graph, rep int) []int {
	ball := g.Ball(rep, c.addrRadius())
	g.SortByID(ball)
	return ball
}

func rankWidth(ballSize int) int {
	w := bits.Len(uint(ballSize - 1))
	if w == 0 {
		w = 1
	}
	return w
}

// Encode converts a sparse assignment with possibly-adjacent holders into
// uniform one-bit advice.
func (c GroupedOneBitCodec) Encode(g *graph.Graph, va VarAdvice) (local.Advice, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	groups, err := c.groups(g, va)
	if err != nil {
		return nil, err
	}
	super := make(VarAdvice, len(groups))
	for _, members := range groups {
		rep := members[0]
		ball := c.addrBall(g, rep)
		rankOf := map[int]int{}
		for r, v := range ball {
			rankOf[v] = r
		}
		w := rankWidth(len(ball))
		payload := bitstr.String{}
		for _, m := range members {
			rank, ok := rankOf[m]
			if !ok {
				return nil, fmt.Errorf("core: holder %d is %d+ hops from its representative %d — proximity chain too long for GroupRadius=%d",
					m, c.addrRadius(), rep, c.GroupRadius)
			}
			sub := va[m]
			if sub.Len() >= 1<<lenWidth {
				return nil, fmt.Errorf("core: holder %d payload of %d bits exceeds the length field", m, sub.Len())
			}
			payload = payload.
				Concat(bitstr.FromUint(uint64(rank), w)).
				Concat(bitstr.FromUint(uint64(sub.Len()), lenWidth)).
				Concat(sub)
		}
		super[rep] = payload
	}
	base := OneBitCodec{Radius: c.Radius}
	advice, err := base.Encode(g, super)
	if err != nil {
		return nil, fmt.Errorf("core: grouped encode: %w", err)
	}
	// Self-check the full grouped roundtrip.
	decoded, _, err := c.Decode(g, advice)
	if err != nil {
		return nil, fmt.Errorf("core: grouped self-check: %w", err)
	}
	if !decoded.Equal(va) {
		return nil, fmt.Errorf("core: grouped self-check mismatch (%d vs %d holders)", len(decoded), len(va))
	}
	return advice, nil
}

// Decode recovers the original sparse assignment.
func (c GroupedOneBitCodec) Decode(g *graph.Graph, advice local.Advice) (VarAdvice, local.Stats, error) {
	if err := c.validate(); err != nil {
		return nil, local.Stats{}, err
	}
	base := OneBitCodec{Radius: c.Radius}
	super, stats, err := base.Decode(g, advice)
	if err != nil {
		return nil, stats, err
	}
	out := make(VarAdvice)
	for rep, payload := range super {
		ball := c.addrBall(g, rep)
		w := rankWidth(len(ball))
		pos := 0
		for pos < payload.Len() {
			if pos+w+lenWidth > payload.Len() {
				return nil, stats, fmt.Errorf("core: truncated member entry at representative %d", rep)
			}
			rank := int(payload.Slice(pos, pos+w).Uint())
			pos += w
			plen := int(payload.Slice(pos, pos+lenWidth).Uint())
			pos += lenWidth
			if pos+plen > payload.Len() {
				return nil, stats, fmt.Errorf("core: member payload overruns at representative %d", rep)
			}
			if rank >= len(ball) {
				return nil, stats, fmt.Errorf("core: member rank %d outside address ball of %d", rank, len(ball))
			}
			member := ball[rank]
			if _, dup := out[member]; dup {
				return nil, stats, fmt.Errorf("core: two payloads address node %d", member)
			}
			out[member] = payload.Slice(pos, pos+plen)
			pos += plen
		}
	}
	return out, stats, nil
}

// AsGroupedOneBitSchema exposes a variable-length schema as a uniform
// one-bit schema via the grouped codec — the fully general Lemma 2.
func AsGroupedOneBitSchema(vs VarSchema, codec GroupedOneBitCodec) Schema {
	return &groupedAdapter{vs: vs, codec: codec}
}

type groupedAdapter struct {
	vs    VarSchema
	codec GroupedOneBitCodec
}

func (a *groupedAdapter) Name() string { return a.vs.Name() + "+1bit-grouped" }

func (a *groupedAdapter) Problem() lcl.Problem { return a.vs.Problem() }

func (a *groupedAdapter) Encode(g *graph.Graph) (local.Advice, error) {
	va, err := a.vs.EncodeVar(g, nil)
	if err != nil {
		return nil, err
	}
	return a.codec.Encode(g, va)
}

func (a *groupedAdapter) Decode(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
	va, pre, err := a.codec.Decode(g, advice)
	if err != nil {
		return nil, pre, err
	}
	sol, stats, err := a.vs.DecodeVar(g, va, nil)
	stats.Rounds += pre.Rounds
	stats.Messages += pre.Messages
	return sol, stats, err
}
