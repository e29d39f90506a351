package core

import (
	"fmt"

	"localadvice/internal/local"
)

// This file makes Definition 3's "for any ε > 0 there exists an ε-sparse
// schema" operational: every sparse schema in this codebase exposes an
// integer knob (mark spacing, cover radius, cluster radius) that trades
// advice density for decoding radius, and TuneSparsity searches the knob
// until the ones ratio drops below the requested ε.

// KnobbedEncoder produces one-bit-per-node advice for a given knob value.
// Larger knobs must not increase the ones ratio (the searches rely on
// approximate monotonicity); an error for a particular knob (e.g. the graph
// is too small for that spacing) ends the search.
type KnobbedEncoder func(knob int) (local.Advice, error)

// TuneResult reports a successful sparsity search.
type TuneResult struct {
	Knob   int
	Advice local.Advice
	Ratio  float64
}

// TuneSparsity doubles the knob from minKnob until the advice's ones ratio
// is at most eps, or the knob exceeds maxKnob, or the encoder fails. It
// returns the first knob that achieves the target.
func TuneSparsity(build KnobbedEncoder, eps float64, minKnob, maxKnob int) (TuneResult, error) {
	if eps <= 0 || eps >= 1 {
		return TuneResult{}, fmt.Errorf("core: eps must be in (0,1), got %v", eps)
	}
	if minKnob < 1 || maxKnob < minKnob {
		return TuneResult{}, fmt.Errorf("core: bad knob range [%d, %d]", minKnob, maxKnob)
	}
	var lastErr error
	for knob := minKnob; knob <= maxKnob; knob *= 2 {
		advice, err := build(knob)
		if err != nil {
			lastErr = err
			break
		}
		ratio, err := Sparsity(advice)
		if err != nil {
			return TuneResult{}, fmt.Errorf("core: knob %d produced non-1-bit advice: %w", knob, err)
		}
		if ratio <= eps {
			return TuneResult{Knob: knob, Advice: advice, Ratio: ratio}, nil
		}
	}
	if lastErr != nil {
		return TuneResult{}, fmt.Errorf("core: no knob in [%d, %d] reached eps=%v (encoder failed: %w)", minKnob, maxKnob, eps, lastErr)
	}
	return TuneResult{}, fmt.Errorf("core: no knob in [%d, %d] reached eps=%v", minKnob, maxKnob, eps)
}
