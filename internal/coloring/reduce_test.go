package coloring

import (
	"math/rand"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
)

func TestCheckProper(t *testing.T) {
	g := graph.Path(3)
	if err := CheckProper(g, []int{1, 2, 1}); err != nil {
		t.Errorf("proper rejected: %v", err)
	}
	if err := CheckProper(g, []int{1, 1, 2}); err == nil {
		t.Error("clash accepted")
	}
	if err := CheckProper(g, []int{1, 2}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := CheckProper(g, []int{0, 1, 2}); err == nil {
		t.Error("zero color accepted")
	}
}

func TestReduceToDeltaPlus1(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomGNP(30, 0.2, rng)
		graph.AssignPermutedIDs(g, rng)
		// Start from the "ID coloring": node v has color ID(v).
		colors := make([]int, g.N())
		for v := range colors {
			colors[v] = int(g.ID(v))
		}
		reduced, rounds, err := ReduceToDeltaPlus1(g, colors)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckProper(g, reduced); err != nil {
			t.Fatal(err)
		}
		delta := g.MaxDegree()
		if MaxColor(reduced) > delta+1 {
			t.Errorf("reduced to %d colors, want <= %d", MaxColor(reduced), delta+1)
		}
		if want := MaxColor(colors) - (delta + 1); rounds != want && !(want < 0 && rounds == 0) {
			t.Errorf("rounds = %d, want %d", rounds, want)
		}
	}
}

func TestReduceKeepsSmallColorings(t *testing.T) {
	g := graph.Cycle(6)
	colors := []int{1, 2, 1, 2, 1, 2}
	reduced, rounds, err := ReduceToDeltaPlus1(g, colors)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 0 {
		t.Errorf("rounds = %d, want 0", rounds)
	}
	for v := range colors {
		if reduced[v] != colors[v] {
			t.Error("coloring changed unnecessarily")
		}
	}
}

func TestLinialReduceProperAndSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := graph.RandomGNP(60, 0.08, rng)
	graph.AssignPermutedIDs(g, rng)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = int(g.ID(v))
	}
	out, err := LinialReduce(g, colors)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckProper(g, out); err != nil {
		t.Fatal(err)
	}
	if MaxColor(out) >= MaxColor(colors) {
		t.Errorf("Linial did not shrink: %d -> %d", MaxColor(colors), MaxColor(out))
	}
}

func TestLinialReduceToQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := graph.RandomGNP(80, 0.05, rng)
	graph.AssignSpreadIDs(g, rng)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = int(g.ID(v))
	}
	out, rounds, err := LinialReduceToQuadratic(g, colors)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckProper(g, out); err != nil {
		t.Fatal(err)
	}
	delta := g.MaxDegree()
	// O(Δ²): the polynomial family gives at most q² colors with q the
	// smallest prime above Δ (loose check: (3Δ+10)²).
	bound := (3*delta + 10) * (3*delta + 10)
	if MaxColor(out) > bound {
		t.Errorf("final colors %d exceed O(Δ²) bound %d (Δ=%d)", MaxColor(out), bound, delta)
	}
	if rounds < 1 {
		t.Errorf("rounds = %d", rounds)
	}
	t.Logf("n=%d Δ=%d: %d -> %d colors in %d Linial rounds", g.N(), delta, MaxColor(colors), MaxColor(out), rounds)
}

func TestLinialEdgeCases(t *testing.T) {
	// Isolated nodes (Δ=0): reduction is a no-op.
	g := graph.New(4)
	out, err := LinialReduce(g, []int{5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range out {
		if c != []int{5, 6, 7, 8}[i] {
			t.Error("Δ=0 reduction changed colors")
		}
	}
}

func TestPrimeHelpers(t *testing.T) {
	tests := []struct{ in, want int }{{0, 2}, {2, 2}, {3, 3}, {4, 5}, {14, 17}, {20, 23}}
	for _, tt := range tests {
		if got := nextPrime(tt.in); got != tt.want {
			t.Errorf("nextPrime(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
	if isPrime(1) || isPrime(9) || !isPrime(13) {
		t.Error("isPrime wrong")
	}
}

func TestDigitsAndEvalPoly(t *testing.T) {
	d := digits(23, 5, 3) // 23 = 3 + 4*5
	if d[0] != 3 || d[1] != 4 || d[2] != 0 {
		t.Errorf("digits = %v", d)
	}
	// p(x) = 3 + 4x over GF(5): p(2) = 11 mod 5 = 1.
	if got := evalPoly([]int{3, 4}, 2, 5); got != 1 {
		t.Errorf("evalPoly = %d, want 1", got)
	}
}

func TestGreedifyProducesGreedyColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 10; trial++ {
		g, planted := graph.RandomColorable(24, 3, 0.25, rng)
		out := Greedify(g, planted)
		if err := CheckProper(g, out); err != nil {
			t.Fatal(err)
		}
		if !IsGreedy(g, out) {
			t.Fatal("Greedify output not greedy")
		}
		if MaxColor(out) > MaxColor(planted) {
			t.Error("Greedify increased colors")
		}
	}
}

func TestSolve3Coloring(t *testing.T) {
	if _, ok := SolveKColoring(graph.Complete(4), 3); ok {
		t.Error("K4 3-colored")
	}
	colors, ok := SolveKColoring(graph.Cycle(5), 3)
	if !ok {
		t.Fatal("C5 not 3-colored")
	}
	sol, err := lcl.ColoringSolution(graph.Cycle(5), colors)
	if err != nil {
		t.Fatal(err)
	}
	if err := lcl.Verify(lcl.Coloring{K: 3}, graph.Cycle(5), sol); err != nil {
		t.Error(err)
	}
}
