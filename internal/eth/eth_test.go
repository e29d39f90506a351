package eth

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// parityAlgo is order-invariant: output depends on the view topology only.
func parityAlgo(view *local.View) any { return len(view.Nodes()) % 2 }

// idAlgo is NOT order-invariant: it outputs the numerical center ID.
func idAlgo(view *local.View) any { return view.ID(view.Center) }

// rankAlgo is order-invariant but ID-dependent: the center's ID rank within
// its view.
func rankAlgo(view *local.View) any {
	rank := 0
	for _, u := range view.Nodes() {
		if view.ID(int(u)) < view.ID(view.Center) {
			rank++
		}
	}
	return rank
}

// misAlgo is the serving layer's order-invariant 0-round MIS decoder: the
// advice bit is the set-membership indicator (label 1 = in the set, 2 =
// out).
func misAlgo(view *local.View) any {
	if view.Advice[view.Center].Bit(0) == 1 {
		return 1
	}
	return 2
}

// misAdvice is the serving layer's MIS advice for a path or an even cycle
// with IDs in node order: its greedy encoder, taking nodes in ID order,
// picks every other node from node 0, so node v holds bit 1 exactly when v
// is even.
func misAdvice(g *graph.Graph) local.Advice {
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(1 - v%2)
	}
	return advice
}

func TestCheckOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g := graph.Cycle(15)
	graph.AssignSpreadIDs(g, rng)
	adv := make(local.Advice, g.N())
	for v := range adv {
		adv[v] = bitstr.New(rng.Intn(2))
	}
	if err := CheckOrderInvariant(g, adv, 2, parityAlgo, rng, 5); err != nil {
		t.Errorf("parity algo flagged: %v", err)
	}
	if err := CheckOrderInvariant(g, adv, 2, rankAlgo, rng, 5); err != nil {
		t.Errorf("rank algo flagged: %v", err)
	}
	if err := CheckOrderInvariant(g, adv, 2, idAlgo, rng, 5); err == nil {
		t.Error("ID-dependent algo passed the order-invariance check")
	}
}

func TestCanonicalizeViewInvariantUnderRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	g := graph.Grid2D(4, 5)
	graph.AssignSpreadIDs(g, rng)
	adv := make(local.Advice, g.N())
	for v := range adv {
		adv[v] = bitstr.New(rng.Intn(2))
	}
	before := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		before[v] = CanonicalizeView(local.BuildView(g, adv, v, 2))
	}
	h := g.Clone()
	graph.RemapIDsOrderPreserving(h, rng)
	for v := 0; v < g.N(); v++ {
		after := CanonicalizeView(local.BuildView(h, adv, v, 2))
		if after != before[v] {
			t.Fatalf("canonical view of node %d changed under order-preserving remap", v)
		}
	}
}

func TestCanonicalizeViewDistinguishesAdvice(t *testing.T) {
	g := graph.Cycle(8)
	a0 := make(local.Advice, g.N())
	a1 := make(local.Advice, g.N())
	for v := range a0 {
		a0[v] = bitstr.New(0)
		a1[v] = bitstr.New(0)
	}
	a1[1] = bitstr.New(1)
	v0 := CanonicalizeView(local.BuildView(g, a0, 0, 2))
	v1 := CanonicalizeView(local.BuildView(g, a1, 0, 2))
	if v0 == v1 {
		t.Error("advice change invisible in canonical view")
	}
}

func TestCompileAndRunTable(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	// Enough random-ID cycles to cover every radius-1 ID-order pattern.
	var train []*graph.Graph
	var advices []local.Advice
	for i := 0; i < 20; i++ {
		g := graph.Cycle(10 + i)
		graph.AssignSpreadIDs(g, rng)
		adv := make(local.Advice, g.N())
		for v := range adv {
			adv[v] = bitstr.New(0)
		}
		train = append(train, g)
		advices = append(advices, adv)
	}
	table, err := Compile(rankAlgo, 1, train, advices)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries) == 0 {
		t.Fatal("empty table")
	}
	// The table must reproduce the algorithm on a fresh cycle.
	test := graph.Cycle(37)
	graph.AssignSpreadIDs(test, rng)
	adv := make(local.Advice, test.N())
	for v := range adv {
		adv[v] = bitstr.New(0)
	}
	got, _, err := table.Run(test, adv)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.RunBall(test, adv, 1, rankAlgo, local.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("node %d: table %v, algo %v", v, got[v], want[v])
		}
	}
}

func TestCompileRejectsNonInvariantAlgo(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	// Two cycles with different spread IDs force idAlgo to collide on the
	// same canonical view with different outputs.
	g1, g2 := graph.Cycle(9), graph.Cycle(9)
	graph.AssignSpreadIDs(g1, rng)
	graph.AssignSpreadIDs(g2, rng)
	empty := func(g *graph.Graph) local.Advice {
		a := make(local.Advice, g.N())
		for v := range a {
			a[v] = bitstr.New(0)
		}
		return a
	}
	if _, err := Compile(idAlgo, 1, []*graph.Graph{g1, g2}, []local.Advice{empty(g1), empty(g2)}); err == nil {
		t.Error("non-order-invariant algorithm compiled cleanly")
	}
}

// TestCompileRejectsShortAdvice: advice that does not cover its graph is a
// returned error naming the graph, as in Table.Run, not a panic.
func TestCompileRejectsShortAdvice(t *testing.T) {
	ok, short := graph.Cycle(6), graph.Cycle(8)
	_, err := Compile(parityAlgo, 1, []*graph.Graph{ok, short}, []local.Advice{misAdvice(ok), misAdvice(ok)[:5]})
	if !errors.Is(err, local.ErrAdviceLength) {
		t.Fatalf("err = %v, want one wrapping local.ErrAdviceLength", err)
	}
	if !strings.Contains(err.Error(), "graph 1") {
		t.Errorf("err = %v, want it to name graph 1", err)
	}
}

func TestTableRejectsUnknownView(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	g := graph.Cycle(10)
	adv := make(local.Advice, g.N())
	for v := range adv {
		adv[v] = bitstr.New(0)
	}
	table, err := Compile(parityAlgo, 1, []*graph.Graph{g}, []local.Advice{adv})
	if err != nil {
		t.Fatal(err)
	}
	// A star was never seen during compilation.
	star := graph.Star(4)
	graph.AssignSpreadIDs(star, rng)
	sadv := make(local.Advice, star.N())
	for v := range sadv {
		sadv[v] = bitstr.New(0)
	}
	if _, _, err := table.Run(star, sadv); err == nil {
		t.Error("unknown view answered")
	}
}

func TestAdviceSearchMIS(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		g := graph.Cycle(n)
		res, err := AdviceSearch(lcl.MIS{}, g, 1, MISDecoder)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("n=%d: no MIS advice found", n)
		}
		if err := lcl.Verify(lcl.MIS{}, g, res.Solution); err != nil {
			t.Fatal(err)
		}
		if res.Attempts > 1<<uint(n) {
			t.Errorf("n=%d: %d attempts exceed 2^n", n, res.Attempts)
		}
	}
}

func TestAdviceSearchAttemptsGrowExponentially(t *testing.T) {
	attempts := map[int]uint64{}
	for _, n := range []int{4, 6, 8, 10} {
		g := graph.Cycle(n)
		res, err := AdviceSearch(lcl.MIS{}, g, 1, MISDecoder)
		if err != nil {
			t.Fatal(err)
		}
		attempts[n] = res.Attempts
	}
	// Successive attempt counts must grow multiplicatively (the 2^n trend).
	if !(attempts[6] > attempts[4] && attempts[8] > attempts[6] && attempts[10] > attempts[8]) {
		t.Errorf("attempts not growing: %v", attempts)
	}
}

func TestAdviceSearchColoring(t *testing.T) {
	g := graph.Cycle(5)
	res, err := AdviceSearch(lcl.Coloring{K: 3}, g, 2, ColoringDecoder(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no 3-coloring advice found on C5")
	}
	if err := lcl.Verify(lcl.Coloring{K: 3}, g, res.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestAdviceSearchUnsolvable(t *testing.T) {
	// 2-coloring an odd cycle: the search must exhaust all 2^(2n) options.
	g := graph.Cycle(5)
	res, err := AdviceSearch(lcl.Coloring{K: 2}, g, 2, ColoringDecoder(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("2-coloring of C5 found")
	}
	if res.Attempts != 1<<10 {
		t.Errorf("attempts = %d, want 2^10", res.Attempts)
	}
}

func TestAdviceSearchBudget(t *testing.T) {
	if _, err := AdviceSearch(lcl.MIS{}, graph.Cycle(50), 1, MISDecoder); err == nil {
		t.Error("oversized search accepted")
	}
	if _, err := AdviceSearch(lcl.MIS{}, graph.Cycle(5), 3, MISDecoder); err == nil {
		t.Error("beta=3 accepted")
	}
}
