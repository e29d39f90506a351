package core

import (
	"fmt"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// fakeKnobbed returns advice with ones on every knob-th node.
func fakeKnobbed(g *graph.Graph) KnobbedEncoder {
	return func(knob int) (local.Advice, error) {
		advice := make(local.Advice, g.N())
		for v := range advice {
			bit := 0
			if v%knob == 0 {
				bit = 1
			}
			advice[v] = bitstr.New(bit)
		}
		return advice, nil
	}
}

func TestTuneSparsityReachesEps(t *testing.T) {
	g := graph.Cycle(512)
	for _, eps := range []float64{0.3, 0.1, 0.02} {
		res, err := TuneSparsity(fakeKnobbed(g), eps, 2, 1024)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if res.Ratio > eps {
			t.Errorf("eps=%v: achieved ratio %v", eps, res.Ratio)
		}
	}
}

func TestTuneSparsityKnobMonotone(t *testing.T) {
	g := graph.Cycle(512)
	loose, err := TuneSparsity(fakeKnobbed(g), 0.3, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := TuneSparsity(fakeKnobbed(g), 0.01, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Knob <= loose.Knob {
		t.Errorf("tighter eps used knob %d <= %d", tight.Knob, loose.Knob)
	}
}

func TestTuneSparsityErrors(t *testing.T) {
	g := graph.Cycle(64)
	if _, err := TuneSparsity(fakeKnobbed(g), 0, 2, 64); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := TuneSparsity(fakeKnobbed(g), 0.5, 10, 5); err == nil {
		t.Error("inverted knob range accepted")
	}
	// Unreachable eps within the range.
	if _, err := TuneSparsity(fakeKnobbed(g), 0.001, 2, 4); err == nil {
		t.Error("unreachable eps reported success")
	}
	// Encoder failure ends the search.
	failing := func(knob int) (local.Advice, error) {
		if knob > 2 {
			return nil, fmt.Errorf("boom")
		}
		return fakeKnobbed(g)(knob)
	}
	if _, err := TuneSparsity(failing, 0.001, 2, 64); err == nil {
		t.Error("encoder failure swallowed")
	}
}
