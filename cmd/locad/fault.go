package main

import (
	"errors"
	"flag"
	"fmt"

	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/local"
)

// cmdFault drives the deterministic fault-injection layer from the command
// line. Advice-corruption classes (flip, truncate, reassign) run a schema's
// encode → corrupt → decode → verify pipeline repeatedly and classify each
// repetition; the crash class runs the view-gathering workload on any engine
// with a node crashing at a chosen round and reports which outputs carry a
// crash error.
func cmdFault(args []string) error {
	fs := flag.NewFlagSet("fault", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	schema := fs.String("schema", "color3", "advice schema: orient, color3, deltacolor, growth")
	class := fs.String("class", "flip", "fault class: flip, truncate, reassign, crash")
	rate := fs.Float64("rate", 0.05, "per-bit flip rate / per-node truncation rate")
	runs := fs.Int("runs", 5, "repetitions (seeds seed, seed+1, ...)")
	crashNode := fs.Int("node", 0, "crash class: node index that crashes")
	crashRound := fs.Int("round", 1, "crash class: round at which the node crashes")
	radius := fs.Int("radius", 2, "crash class: view radius of the gather protocol")
	engine := engineFlag(fs, "crash class: engine")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyWorkers(*workers)
	g, err := harness.BuildGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}

	if *class == "crash" {
		return runCrash(g, *crashNode, *crashRound, *radius, *engine, *workers)
	}

	fsc, ok := harness.FaultSchemaByName(*schema)
	if !ok {
		return fmt.Errorf("unknown schema %q (have orient, color3, deltacolor, growth)", *schema)
	}
	var plan func(seed int64) *fault.Plan
	switch *class {
	case "flip":
		plan = func(s int64) *fault.Plan { return &fault.Plan{Seed: s, FlipRate: *rate} }
	case "truncate":
		plan = func(s int64) *fault.Plan { return &fault.Plan{Seed: s, TruncateRate: *rate} }
	case "reassign":
		plan = func(s int64) *fault.Plan { return &fault.Plan{Seed: s, ReassignIDs: true} }
	default:
		return fmt.Errorf("unknown fault class %q (have flip, truncate, reassign, crash)", *class)
	}

	var counts [3]int
	for i := 0; i < *runs; i++ {
		outcome, err := harness.ClassifyFaultRun(fsc, g, plan(*seed+int64(i)))
		if err != nil {
			return err
		}
		counts[outcome]++
		fmt.Printf("run %d (seed %d): %s\n", i+1, *seed+int64(i), outcome)
	}
	fmt.Printf("\n%s on %s under %s faults (rate %.2f): %d/%d valid, %d detected at decode, %d detected at verify, 0 silent invalid\n",
		fsc.Name, g, *class, *rate,
		counts[harness.OutcomeValid], *runs,
		counts[harness.OutcomeDetectedDecode], counts[harness.OutcomeDetectedVerify])
	return nil
}

// runCrash executes the view-gathering workload with one node crashing at a
// given round and reports per-node outcomes: the crashed node's output slot
// holds a fault.CrashError, every other node still terminates with a view.
// On the ball engine a crash only fires within the view radius.
func runCrash(gg *graph.Graph, node, round, radius int, engine string, workers int) error {
	if node < 0 || node >= gg.N() {
		return fmt.Errorf("crash node %d out of range [0,%d)", node, gg.N())
	}
	cfg := local.RunConfig{
		Workers: workers,
		Fault:   &fault.Plan{CrashNode: node, CrashRound: round},
	}
	outputs, stats, err := local.RunDecider(engine, gg, nil, radius, local.ViewSize, cfg)
	if err != nil {
		return err
	}
	crashed, completed := 0, 0
	for _, out := range outputs {
		if e, ok := out.(error); ok && errors.Is(e, fault.ErrCrashed) {
			crashed++
		} else {
			completed++
		}
	}
	fmt.Printf("%s engine=%s radius=%d: node %d crashed at round %d\n", gg, engine, radius, node, round)
	fmt.Printf("  rounds: %d, messages: %d\n", stats.Rounds, stats.Messages)
	fmt.Printf("  outputs: %d completed, %d crashed (crash surfaces as a typed error, not a panic)\n", completed, crashed)
	if crashed != 1 {
		return fmt.Errorf("expected exactly 1 crashed output, got %d", crashed)
	}
	return nil
}
