package core

import (
	"fmt"

	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// This file is the robustness half of the schema framework: verified
// decoding. Definition 2 only promises a correct output for the prover's
// own advice; on corrupted advice a decoder may error out — or it may
// produce a labeling that merely looks like a solution. The Verified
// variants close that gap by always running the problem verifier on the
// decoded output, so a schema execution ends in exactly one of two states:
// a verified-valid solution, or an error. An invalid output caught here is
// reported as fault.ErrDetectedCorruption. Experiment E9 measures this
// contract under injected faults.

// DecodeVerified runs s.Decode and then the problem's verifier. It returns
// the solution only when it is valid; a decoded-but-invalid output is
// returned as an error wrapping fault.ErrDetectedCorruption, never as a
// solution.
func DecodeVerified(s Schema, g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
	sol, stats, err := s.Decode(g, advice)
	if err != nil {
		return nil, stats, fmt.Errorf("core: %s decode: %w", s.Name(), err)
	}
	if err := lcl.Verify(s.Problem(), g, sol); err != nil {
		return nil, stats, fmt.Errorf("core: %s output failed verification (%v): %w",
			s.Name(), err, fault.ErrDetectedCorruption)
	}
	return sol, stats, nil
}
