package eth

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// canonicalizeViewReference is the fmt-based rendering of the canonical
// fingerprint that CanonicalizeView must reproduce byte for byte: every
// stored table is keyed by these bytes. It renders the materialized ball,
// whose edge list it reads directly, so it shares no code with the
// fingerprint's walk over the view's neighbor lists.
func canonicalizeViewReference(lazy *local.View) string {
	view := lazy.Materialize()
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

// keyFamily is the graph family of the fingerprint property tests: random
// graphs of 1 to 30 nodes at assorted densities, a star and a grid, each
// under permuted and under spread IDs, with 0 to 3 advice bits per node
// (empty strings included).
func keyFamily(rng *rand.Rand) (names []string, gs []*graph.Graph, advices []local.Advice) {
	var base []*graph.Graph
	for n := 1; n <= 30; n++ {
		for _, p := range []float64{0.08, 0.2, 0.45, 0.7} {
			base = append(base, graph.RandomGNP(n, p, rng))
		}
	}
	base = append(base, graph.Star(9), graph.Grid2D(5, 6))
	for i, g := range base {
		for _, ids := range []string{"permuted", "spread"} {
			h := g.Clone()
			if ids == "permuted" {
				graph.AssignPermutedIDs(h, rng)
			} else {
				graph.AssignSpreadIDs(h, rng)
			}
			adv := make(local.Advice, h.N())
			for v := range adv {
				bits := make([]int, rng.Intn(4))
				for j := range bits {
					bits[j] = rng.Intn(2)
				}
				adv[v] = bitstr.New(bits...)
			}
			names = append(names, fmt.Sprintf("graph %d (%d nodes, %d edges, %s IDs)", i, h.N(), h.M(), ids))
			gs = append(gs, h)
			advices = append(advices, adv)
		}
	}
	return names, gs, advices
}

// TestCanonicalizeViewMatchesReference pins the fingerprint bytes: on every
// view of every node of the key family at radii 0 to 3, CanonicalizeView
// and the pooled rendering Table.Run looks up must equal the fmt-based
// reference. The views come from RunBall, so both the reused view and the
// pooled scratch carry state from one view into the next.
func TestCanonicalizeViewMatchesReference(t *testing.T) {
	names, gs, advices := keyFamily(rand.New(rand.NewSource(106)))
	views := 0
	for i, g := range gs {
		for radius := 0; radius <= 3; radius++ {
			outs, _, err := local.RunBall(g, advices[i], radius, func(view *local.View) any {
				want := canonicalizeViewReference(view)
				if got := CanonicalizeView(view); got != want {
					return fmt.Sprintf("CanonicalizeView = %q, reference %q", got, want)
				}
				sc := canonPool.Get().(*canonScratch)
				defer canonPool.Put(sc)
				if got := sc.key(view); !bytes.Equal(got, []byte(want)) {
					return fmt.Sprintf("pooled key = %q, reference %q", got, want)
				}
				return nil
			}, local.RunConfig{Workers: 1 + i%3})
			if err != nil {
				t.Fatalf("%s radius %d: %v", names[i], radius, err)
			}
			for v, out := range outs {
				if out != nil {
					t.Fatalf("%s, node %d, radius %d: %v", names[i], v, radius, out)
				}
			}
			views += len(outs)
		}
	}
	t.Logf("%d views byte-identical to the reference", views)
}

// TestReferenceKeyedTableRuns is the store-compatibility property: a table
// keyed by reference fingerprints, as every stored table is, must answer
// every node of its graph after a round trip through the binary and the
// text codec.
func TestReferenceKeyedTableRuns(t *testing.T) {
	names, gs, advices := keyFamily(rand.New(rand.NewSource(107)))
	binEnc, binDec := IntBinaryCodec()
	textEnc, textDec := IntCodec()
	for i, g := range gs {
		for radius := 0; radius <= 3; radius++ {
			table := &Table{Radius: radius, Entries: map[string]any{}}
			want := make([]any, g.N())
			for v := range want {
				view := local.BuildView(g, advices[i], v, radius)
				want[v] = rankAlgo(view)
				table.Entries[canonicalizeViewReference(view)] = want[v]
			}
			var bin, text bytes.Buffer
			if err := table.SaveBinary(&bin, binEnc); err != nil {
				t.Fatal(err)
			}
			if err := table.Save(&text, textEnc); err != nil {
				t.Fatal(err)
			}
			fromBin, err := LoadTableBinary(&bin, binDec)
			if err != nil {
				t.Fatal(err)
			}
			fromText, err := LoadTable(&text, textDec)
			if err != nil {
				t.Fatal(err)
			}
			for codec, loaded := range map[string]*Table{"binary": fromBin, "text": fromText} {
				got, _, err := loaded.Run(g, advices[i])
				if err != nil {
					t.Fatalf("%s radius %d, %s codec: %v", names[i], radius, codec, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s radius %d, %s codec: node %d answered %v, want %v", names[i], radius, codec, v, got[v], want[v])
					}
				}
			}
		}
	}
}
