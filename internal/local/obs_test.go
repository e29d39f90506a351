package local

import (
	"fmt"
	"reflect"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// deterministicRounds extracts the worker-independent projection of a
// collector's round metrics.
func deterministicRounds(c *obs.Collector) []obs.RoundMetric {
	rounds := c.Rounds()
	out := make([]obs.RoundMetric, len(rounds))
	for i, r := range rounds {
		out[i] = r.Deterministic()
	}
	return out
}

// TestMetricsWorkerCountDeterminism is the acceptance gate for the metrics
// layer: on every engine, the per-round counters (round, active nodes,
// messages, bytes) and the outputs must agree bit-for-bit across
// workers ∈ {-1, 1, 8}.
func TestMetricsWorkerCountDeterminism(t *testing.T) {
	g := graph.Grid2D(12, 12)
	for _, engine := range EngineNames() {
		var want []obs.RoundMetric
		var wantOut string
		for _, workers := range []int{-1, 1, 8} {
			c := &obs.Collector{}
			outputs, _, err := RunDecider(engine, g, nil, 2, gatherDecide, RunConfig{Workers: workers, Metrics: c})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", engine, workers, err)
			}
			got := deterministicRounds(c)
			if len(got) == 0 {
				t.Fatalf("%s workers=%d recorded no rounds", engine, workers)
			}
			out := fmt.Sprintf("%v", outputs)
			if want == nil {
				want, wantOut = got, out
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: per-round metrics differ\n got: %+v\nwant: %+v", engine, workers, got, want)
			}
			if out != wantOut {
				t.Errorf("%s workers=%d: outputs differ", engine, workers)
			}
		}
	}
}

// TestMetricsEngineAgreement pins that the deterministic counters agree
// between the scheduler and the sequential oracle (modulo the Engine
// label): same rounds, same active-node profile, same per-round message and
// byte counts.
func TestMetricsEngineAgreement(t *testing.T) {
	g := graph.Torus2D(6, 6)
	var want []obs.RoundMetric
	for _, engine := range []string{"scheduler", "sequential"} {
		c := &obs.Collector{}
		if _, _, err := RunDecider(engine, g, nil, 2, gatherDecide, RunConfig{Workers: 2, Metrics: c}); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		got := deterministicRounds(c)
		for i := range got {
			got[i].Engine = "" // engines differ only in the label
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ from the scheduler's\n got: %+v\nwant: %+v", engine, got, want)
		}
	}
}

// TestMetricsDisabledIdenticalOutputs is the other acceptance half: with
// Metrics nil every engine produces byte-identical outputs and stats to a
// metrics-enabled run (the instrumentation observes, never perturbs).
func TestMetricsDisabledIdenticalOutputs(t *testing.T) {
	g := graph.Cycle(48)
	for _, engine := range EngineNames() {
		off, offStats, err := RunDecider(engine, g, nil, 3, gatherDecide, RunConfig{Workers: 2})
		if err != nil {
			t.Fatalf("%s disabled: %v", engine, err)
		}
		c := &obs.Collector{}
		on, onStats, err := RunDecider(engine, g, nil, 3, gatherDecide, RunConfig{Workers: 2, Metrics: c})
		if err != nil {
			t.Fatalf("%s enabled: %v", engine, err)
		}
		if fmt.Sprintf("%v", off) != fmt.Sprintf("%v", on) {
			t.Errorf("%s: outputs differ between metrics on/off", engine)
		}
		if offStats != onStats {
			t.Errorf("%s: stats differ between metrics on/off: %+v vs %+v", engine, offStats, onStats)
		}
		if len(c.Rounds()) == 0 {
			t.Errorf("%s: enabled run recorded nothing", engine)
		}
	}
}

// TestMetricsDisabledZeroAdditionalAllocations pins the zero-cost contract:
// with Metrics nil (and no process default installed), an engine run
// allocates exactly as much as a run with the zero RunConfig — the
// instrumentation adds nothing — and the nil-collector hooks themselves are
// allocation-free (see obs's own tests for the per-hook assertion).
func TestMetricsDisabledZeroAdditionalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	obs.SetDefault(nil)
	g := graph.Cycle(32)
	run := func(cfg RunConfig) {
		if _, _, err := RunSequential(g, &GatherProtocol{Radius: 2, Decide: gatherDecide}, nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(10, func() { run(RunConfig{}) })
	withNil := testing.AllocsPerRun(10, func() { run(RunConfig{Metrics: nil}) })
	if base != withNil {
		t.Errorf("nil Metrics changed allocations: base %.1f vs %.1f", base, withNil)
	}
	// The ball engine's disabled path likewise.
	ballBase := testing.AllocsPerRun(10, func() {
		if _, _, err := RunBall(g, nil, 2, gatherDecide, RunConfig{Workers: -1}); err != nil {
			t.Fatal(err)
		}
	})
	ballNil := testing.AllocsPerRun(10, func() {
		if _, _, err := RunBall(g, nil, 2, gatherDecide, RunConfig{Workers: -1, Metrics: nil}); err != nil {
			t.Fatal(err)
		}
	})
	if ballBase != ballNil {
		t.Errorf("ball: nil Metrics changed allocations: %.1f vs %.1f", ballBase, ballNil)
	}
}

// TestMetricsDefaultCollectorFallback: engines report into the process-wide
// collector when RunConfig.Metrics is nil, mirroring SetDefaultWorkers.
func TestMetricsDefaultCollectorFallback(t *testing.T) {
	c := &obs.Collector{}
	obs.SetDefault(c)
	defer obs.SetDefault(nil)
	g := graph.Cycle(20)
	if _, _, err := RunSequential(g, &GatherProtocol{Radius: 1, Decide: gatherDecide}, nil, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if len(c.Rounds()) == 0 {
		t.Fatal("default collector saw no rounds")
	}
	// An explicit collector wins over the default.
	explicit := &obs.Collector{}
	if _, _, err := RunSequential(g, &GatherProtocol{Radius: 1, Decide: gatherDecide}, nil, RunConfig{Metrics: explicit}); err != nil {
		t.Fatal(err)
	}
	if len(explicit.Rounds()) == 0 {
		t.Fatal("explicit collector saw no rounds")
	}
}

// TestMetricsFaultEvents: injected damage and crash activations surface as
// events, identically across all engines.
func TestMetricsFaultEvents(t *testing.T) {
	g := graph.Cycle(24)
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstrOnes(4)
	}
	plan := &fault.Plan{Seed: 7, FlipRate: 0.5, CrashNode: 3, CrashRound: 2}
	totals := func(c *obs.Collector) (flipped, crashes int64) {
		for _, e := range c.Events() {
			switch e.Kind {
			case "fault.flipped_bits":
				flipped += e.Value
			case "fault.crash":
				crashes += e.Value
			}
		}
		return
	}
	var wantFlipped int64 = -1
	for _, engine := range EngineNames() {
		c := &obs.Collector{}
		if _, _, err := RunDecider(engine, g, advice, 2, gatherDecide, RunConfig{Fault: plan, Metrics: c}); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		flipped, crashes := totals(c)
		if flipped == 0 {
			t.Errorf("%s: no fault.flipped_bits event", engine)
		}
		if crashes != 1 {
			t.Errorf("%s: fault.crash total = %d, want 1", engine, crashes)
		}
		if wantFlipped == -1 {
			wantFlipped = flipped
		} else if flipped != wantFlipped {
			t.Errorf("%s: flipped %d bits, other engines flipped %d", engine, flipped, wantFlipped)
		}
	}
}

// bitstrOnes builds an all-ones advice string of the given length.
func bitstrOnes(n int) bitstr.String {
	bits := make([]int, n)
	for i := range bits {
		bits[i] = 1
	}
	return bitstr.New(bits...)
}
