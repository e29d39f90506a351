package local

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
)

// sumIDsInView is a pure view-decide function: the sum of all visible node
// IDs plus the center's true degree. Any two engines that assemble the same
// radius-2 view must produce the same value, so it pins engine equivalence
// without depending on a production decoder.
func sumIDsInView(v *View) any {
	var sum int64
	for _, u := range v.Nodes() {
		sum += v.ID(int(u))
	}
	return fmt.Sprintf("%d/%d/%s", sum, v.TrueDegree(v.Center), v.Advice[v.Center])
}

// TestRunDeciderUnknownEngine pins the typed dispatch error.
func TestRunDeciderUnknownEngine(t *testing.T) {
	g := graph.Cycle(8)
	advice := make(Advice, g.N())
	for _, name := range []string{"", "Ball", "turbo", "scheduler "} {
		_, _, err := RunDecider(name, g, advice, 1, sumIDsInView, RunConfig{})
		if !errors.Is(err, ErrUnknownEngine) {
			t.Fatalf("engine %q: err = %v, want ErrUnknownEngine", name, err)
		}
	}
}

// TestNegativeRadiusRejected pins that every engine rejects a negative view
// radius with the typed error instead of deciding: unchecked, the ball
// engine read -1 as unbounded (every node saw the whole cycle) while the
// message engines decided on a one-node view.
func TestNegativeRadiusRejected(t *testing.T) {
	g := graph.Cycle(20)
	for _, engine := range EngineNames() {
		for _, radius := range []int{-1, -5} {
			out, _, err := RunDecider(engine, g, nil, radius, sumIDsInView, RunConfig{})
			if !errors.Is(err, ErrNegativeRadius) || out != nil {
				t.Errorf("%s radius %d: out=%v err=%v, want ErrNegativeRadius", engine, radius, out, err)
			}
		}
	}
	if _, _, err := RunBall(g, nil, -1, sumIDsInView, RunConfig{}); !errors.Is(err, ErrNegativeRadius) {
		t.Errorf("RunBall radius -1: err = %v, want ErrNegativeRadius", err)
	}
	if _, stats, err := RunDecider("ball", g, nil, 0, sumIDsInView, RunConfig{}); err != nil || stats.Rounds != 0 {
		t.Errorf("radius 0: stats=%+v err=%v, want a zero-round run", stats, err)
	}
}

// TestRunDeciderEngineEquivalence sweeps EngineNames × worker counts on a
// permuted grid with non-trivial advice: every engine must produce
// bit-identical outputs for a pure view-decide function.
func TestRunDeciderEngineEquivalence(t *testing.T) {
	g := graph.Grid2D(6, 7)
	graph.AssignPermutedIDs(g, rand.New(rand.NewSource(5)))
	advice := make(Advice, g.N())
	for i := range advice {
		advice[i] = bitstr.FromUint(uint64(i*7%13), 4)
	}
	var want []any
	for _, engine := range EngineNames() {
		for _, workers := range []int{-1, 1, 8} {
			out, stats, err := RunDecider(engine, g, advice, 2, sumIDsInView, RunConfig{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", engine, workers, err)
			}
			if len(out) != g.N() {
				t.Fatalf("%s workers=%d: %d outputs, want %d", engine, workers, len(out), g.N())
			}
			if engine != "ball" && stats.Rounds < 2 {
				t.Fatalf("%s workers=%d: %d rounds for a radius-2 gather", engine, workers, stats.Rounds)
			}
			if want == nil {
				want = out
				continue
			}
			for v := range out {
				if out[v] != want[v] {
					t.Fatalf("%s workers=%d: node %d decided %v, first engine decided %v",
						engine, workers, v, out[v], want[v])
				}
			}
		}
	}
}
