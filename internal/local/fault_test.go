package local

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
)

// TestNormalizeWorkers pins the shared worker-count resolution: negative is
// sequential; zero is the SetDefaultWorkers value if one is set, else one
// worker below parallelThreshold nodes and GOMAXPROCS above; and the result
// never exceeds the node count. Every engine resolves through this one
// function, so this table is the whole contract.
func TestNormalizeWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n, want int
	}{
		{-1, 100, 1},
		{-7, 100, 1},
		{0, 100, 1},
		{0, 1000, min(maxprocs, 1000)},
		{1, 100, 1},
		{8, 100, 8},
		{8, 4, 4},
		{-1, 0, 1},
		{0, 0, 1},
		{8, 0, 1},
	}
	for _, c := range cases {
		got := RunConfig{Workers: c.workers}.normalize(c.n)
		if got != c.want {
			t.Errorf("normalize(workers=%d, n=%d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}

	// A process default replaces the size-based rule for Workers == 0 only.
	SetDefaultWorkers(3)
	defer SetDefaultWorkers(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 100, 3},
		{0, 1000, 3},
		{0, 2, 2},
		{5, 100, 5},
		{-1, 100, 1},
	} {
		if got := (RunConfig{Workers: c.workers}).normalize(c.n); got != c.want {
			t.Errorf("SetDefaultWorkers(3): normalize(workers=%d, n=%d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// gatherDecide is the engine-equivalence workload: a pure function of the
// radius-T view.
func gatherDecide(view *View) any { return ViewSize(view) }

// TestCrashAgreementAcrossEngines runs the same crash plan through every
// engine at workers -1/1/8 and checks they agree: every engine leaves the
// typed crash error in the crashed node's slot; the message engines agree on
// every other output too, and the scheduler and the sequential oracle on
// rounds and message count. The ball engine has no per-round message flow,
// so a crash cannot starve its other views and only the typed error is
// comparable across the engine split.
func TestCrashAgreementAcrossEngines(t *testing.T) {
	g := graph.Cycle(30)
	plan := &fault.Plan{CrashNode: 5, CrashRound: 2}
	want := fault.CrashError{Node: 5, Round: 2}
	var refOut []any
	var refStats Stats
	for _, engine := range EngineNames() {
		for _, workers := range []int{-1, 1, 8} {
			name := fmt.Sprintf("%s workers=%d", engine, workers)
			out, stats, err := RunDecider(engine, g, nil, 3, gatherDecide, RunConfig{Workers: workers, Fault: plan})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ce, ok := out[5].(fault.CrashError); !ok || ce != want || !errors.Is(ce, fault.ErrCrashed) {
				t.Fatalf("%s: crashed node output = %#v, want %+v wrapping ErrCrashed", name, out[5], want)
			}
			if engine == "ball" {
				continue
			}
			if refOut == nil {
				refOut, refStats = out, stats
				continue
			}
			// The frugal engine's Stats count skeleton transport and
			// forwarding overhead, so only its outputs are comparable.
			if engine != "frugal" && stats != refStats {
				t.Errorf("%s stats %+v, scheduler %+v", name, stats, refStats)
			}
			for v := range refOut {
				if fmt.Sprint(out[v]) != fmt.Sprint(refOut[v]) {
					t.Fatalf("%s disagrees with the scheduler at node %d: %v vs %v", name, v, out[v], refOut[v])
				}
			}
		}
	}
}

// TestAdviceFlipAgreementAcrossEngines runs the same seeded advice-flip plan
// through every engine at workers -1/1/8 on a view-fingerprint workload and
// checks every node's output is identical — corrupted advice must corrupt
// every engine the same way.
func TestAdviceFlipAgreementAcrossEngines(t *testing.T) {
	g := graph.Cycle(24)
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(1, v%2, 1)
	}
	plan := &fault.Plan{Seed: 11, FlipRate: 0.4}
	var refOut []any
	for _, engine := range EngineNames() {
		for _, workers := range []int{-1, 1, 8} {
			out, _, err := RunDecider(engine, g, advice, 2, viewFingerprint, RunConfig{Workers: workers, Fault: plan})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", engine, workers, err)
			}
			if refOut == nil {
				refOut = out
				continue
			}
			for v := range refOut {
				if out[v] != refOut[v] {
					t.Fatalf("%s workers=%d disagrees with the ball engine at node %d under flipped advice:\n%v\nvs\n%v",
						engine, workers, v, out[v], refOut[v])
				}
			}
		}
	}
}

// TestBallEngineCrash pins the ball engine's crash semantics: a node crashed
// within the decoding radius yields a CrashError output, a crash scheduled
// past the radius never fires.
func TestBallEngineCrash(t *testing.T) {
	g := graph.Cycle(20)
	algo := func(view *View) any { return len(view.Nodes()) }

	outputs, _, err := RunBall(g, nil, 2, algo, RunConfig{
		Fault: &fault.Plan{CrashNode: 3, CrashRound: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := outputs[3].(error); !ok || !errors.Is(e, fault.ErrCrashed) {
		t.Fatalf("outputs[3] = %#v, want a crash error", outputs[3])
	}
	for v, out := range outputs {
		if v != 3 {
			if _, ok := out.(error); ok {
				t.Fatalf("node %d unexpectedly crashed: %v", v, out)
			}
		}
	}

	outputs, _, err = RunBall(g, nil, 2, algo, RunConfig{
		Fault: &fault.Plan{CrashNode: 3, CrashRound: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := outputs[3].(error); ok {
		t.Fatalf("crash at round 5 fired within radius 2: %v", outputs[3])
	}
}

// TestApplyDeterministicAndNonMutating checks the corruption layer's two core
// promises: the same plan applied twice produces bit-identical results, and
// the caller's graph and advice are never mutated.
func TestApplyDeterministicAndNonMutating(t *testing.T) {
	g := graph.Cycle(40)
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(1, 0, 1)
	}
	orig := make(Advice, len(advice))
	copy(orig, advice)

	plan := &fault.Plan{Seed: 7, FlipRate: 0.3, TruncateRate: 0.2, ReassignIDs: true}
	g1, a1, rep1 := plan.Apply(g, advice)
	g2, a2, rep2 := plan.Apply(g, advice)
	if rep1 != rep2 {
		t.Fatalf("reports differ: %+v vs %+v", rep1, rep2)
	}
	if rep1.FlippedBits == 0 {
		t.Fatal("flip rate 0.3 on 120 bits flipped nothing; corruption is not being applied")
	}
	for v := range a1 {
		if !a1[v].Equal(a2[v]) {
			t.Fatalf("node %d advice differs between identical applications: %v vs %v", v, a1[v], a2[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		if g1.ID(v) != g2.ID(v) {
			t.Fatalf("node %d ID differs between identical applications", v)
		}
	}
	// Inputs untouched.
	for v := range advice {
		if !advice[v].Equal(orig[v]) {
			t.Fatalf("Apply mutated the caller's advice at node %d", v)
		}
		if g.ID(v) != int64(v+1) {
			t.Fatalf("Apply mutated the caller's graph IDs at node %d", v)
		}
	}
	// Reassignment really happened on the copy: same ID multiset, different
	// assignment (seed 7 is not the identity permutation on 40 nodes).
	moved := 0
	for v := 0; v < g.N(); v++ {
		if g1.ID(v) != g.ID(v) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("ReassignIDs left every ID in place")
	}
}

// TestInactivePlanReturnsInputs checks the fast path: a nil or zero plan
// passes the inputs through unchanged, same pointers, so fault-free runs pay
// nothing.
func TestInactivePlanReturnsInputs(t *testing.T) {
	g := graph.Cycle(8)
	advice := make(Advice, g.N())
	for _, plan := range []*fault.Plan{nil, {}} {
		fg, fadv, rep := plan.Apply(g, advice)
		if fg != g || &fadv[0] != &advice[0] {
			t.Fatalf("inactive plan %+v copied its inputs", plan)
		}
		if rep != (fault.Report{}) {
			t.Fatalf("inactive plan reported work: %+v", rep)
		}
	}
}

// TestTryVariantsRejectShortAdvice checks every engine entry point reports
// malformed advice as a typed error before the run starts.
func TestTryVariantsRejectShortAdvice(t *testing.T) {
	g := graph.Cycle(10)
	short := make(Advice, 4)
	protocol := &GatherProtocol{Radius: 1, Decide: gatherDecide}
	runs := map[string]func() error{
		"RunBall": func() error {
			_, _, err := RunBall(g, short, 1, gatherDecide, RunConfig{})
			return err
		},
		"Run": func() error {
			_, _, err := Run(g, protocol, short, RunConfig{})
			return err
		},
		"RunSequential": func() error {
			_, _, err := RunSequential(g, protocol, short, RunConfig{})
			return err
		},
		"RunFrugal": func() error {
			_, _, err := RunFrugal(g, protocol, short, RunConfig{})
			return err
		},
	}
	for _, engine := range EngineNames() {
		runs["RunDecider/"+engine] = func() error {
			_, _, err := RunDecider(engine, g, short, 1, gatherDecide, RunConfig{})
			return err
		}
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, ErrAdviceLength) {
			t.Errorf("%s: err = %v, want ErrAdviceLength", name, err)
		}
	}
}

// TestCrashAcrossWorkerCounts checks that crash faults keep the worker-count
// equivalence guarantee: the sharded scheduler produces identical results at
// every worker count, crash or no crash.
func TestCrashAcrossWorkerCounts(t *testing.T) {
	g := graph.Cycle(64)
	cfg := func(w int) RunConfig {
		return RunConfig{Workers: w, Fault: &fault.Plan{CrashNode: 10, CrashRound: 1}}
	}
	refOut, refStats, err := Run(g, &GatherProtocol{Radius: 3, Decide: gatherDecide}, nil, cfg(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 8} {
		out, stats, err := Run(g, &GatherProtocol{Radius: 3, Decide: gatherDecide}, nil, cfg(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if stats != refStats {
			t.Errorf("workers=%d stats %+v != %+v", w, stats, refStats)
		}
		for v := range refOut {
			if fmt.Sprint(out[v]) != fmt.Sprint(refOut[v]) {
				t.Fatalf("workers=%d disagrees at node %d", w, v)
			}
		}
	}
}
