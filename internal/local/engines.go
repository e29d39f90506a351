package local

import (
	"fmt"

	"localadvice/internal/graph"
)

// This file gives the four engines one dispatchable surface for view-based
// LOCAL algorithms. The production decoders (orient, 3-coloring, …) are all
// "gather a radius-T view, decide" algorithms; RunDecider executes such a
// decide function on any engine by name — directly on the ball engine, and
// wrapped in a GatherProtocol flood on the three message engines. The
// engine-equivalence and seed-independence test walls and the locad
// engine/trace/fault subcommands sweep or accept EngineNames(), so a
// schema's output can be pinned bit-identical across every engine without
// each caller hand-rolling the dispatch.

// EngineNames lists the four engines RunDecider accepts, in the order the
// equivalence tests sweep them: the parallel view engine (RunBall), the
// sharded scheduler (Run), the sequential oracle (RunSequential), and the
// bandwidth-frugal skeleton engine (RunFrugal).
func EngineNames() []string {
	return []string{"ball", "scheduler", "sequential", "frugal"}
}

// ErrUnknownEngine tags RunDecider calls naming an engine outside
// EngineNames.
var ErrUnknownEngine = fmt.Errorf("local: unknown engine")

// RunDecider runs a view-decide function on every node of g using the named
// engine. The ball engine evaluates decide on directly-built views; the
// message engines flood (ID, degree, advice, adjacency) for radius rounds
// via GatherProtocol and decide on the assembled views. For a decide that
// is a pure function of the view (all production decoders are), the outputs
// are bit-identical across all four engines and every worker count; only
// Stats (rounds, messages) differ by engine, reflecting what each transport
// actually did. A negative radius fails with an error wrapping
// ErrNegativeRadius on every engine.
func RunDecider(engine string, g *graph.Graph, advice Advice, radius int, decide func(*View) any, cfg RunConfig) ([]any, Stats, error) {
	if err := validateRadius(radius); err != nil {
		return nil, Stats{}, err
	}
	if engine == "ball" {
		return RunBall(g, advice, radius, decide, cfg)
	}
	p := &GatherProtocol{Radius: radius, Decide: decide}
	switch engine {
	case "scheduler":
		return Run(g, p, advice, cfg)
	case "sequential":
		return RunSequential(g, p, advice, cfg)
	case "frugal":
		return RunFrugal(g, p, advice, cfg)
	default:
		return nil, Stats{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownEngine, engine, EngineNames())
	}
}

// validateRadius rejects a negative view radius with ErrNegativeRadius.
func validateRadius(radius int) error {
	if radius < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeRadius, radius)
	}
	return nil
}
