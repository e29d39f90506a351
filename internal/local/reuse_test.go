package local

import (
	"math"
	"runtime"
	"testing"

	"localadvice/internal/graph"
)

// TestRunBallAllocsIndependentOfGraphSize pins the ball engine's steady
// state: each worker rebuilds one View in place, so a single-worker run
// whose algorithm returns a preboxed value allocates the same number of
// times on a 256-node and a 1024-node cycle. A failure prints the count of
// an engine that builds a fresh View and subgraph per node.
func TestRunBallAllocsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	boxed := any(struct{ x, y int }{1, 2})
	algo := func(*View) any { return boxed }
	// Allocations per run on cycle-1024 with a fresh View per node.
	fresh := map[int]int{0: 10242, 1: 13314, 27: 13316}
	for _, radius := range []int{0, 1, 27} {
		allocs := make(map[int]float64)
		for _, n := range []int{256, 1024} {
			g := graph.Cycle(n)
			run := func() {
				if _, _, err := RunBall(g, nil, radius, algo, RunConfig{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the CSR snapshot and the pooled builder
			allocs[n] = testing.AllocsPerRun(20, run)
		}
		t.Logf("radius %d: %.0f allocations per run on cycle-256, %.0f on cycle-1024", radius, allocs[256], allocs[1024])
		if allocs[256] != allocs[1024] {
			t.Errorf("radius %d: %.0f allocations per run on cycle-256 but %.0f on cycle-1024; want equal (a fresh View per node: %d on cycle-1024)",
				radius, allocs[256], allocs[1024], fresh[radius])
		}
	}
}

// preboxedFlood is FloodProtocol with the protocol's own allocations hoisted
// out of the rounds: every informed machine returns a prefix of one shared
// outbox, filled once with one boxed token. What a run allocates beyond one
// machine per node is then the scheduler's own.
type preboxedFlood struct {
	source int64
	rounds int
	outbox []Message
}

func (p *preboxedFlood) NewMachine(info NodeInfo) Machine {
	return &preboxedFloodMachine{p: p, deg: info.Degree, informed: info.ID == p.source}
}

type preboxedFloodMachine struct {
	p        *preboxedFlood
	deg      int
	informed bool
}

func (m *preboxedFloodMachine) Round(round int, inbox []Message) ([]Message, bool) {
	for _, msg := range inbox {
		if msg != nil {
			m.informed = true
			break
		}
	}
	done := round >= m.p.rounds
	if !m.informed {
		return nil, done
	}
	return m.p.outbox[:m.deg], done
}

func (m *preboxedFloodMachine) Output() any { return m.informed }

// TestSchedulerAllocsPerRoundIndependentOfGraphSize pins the scheduler's
// steady state: the slabs, port table, per-node state and shard workers are
// allocated once per run, so each extra round adds no allocation on a
// 32×32 or a 64×64 grid at workers 1, 2 and 4, and the same bytes on both
// to within one byte per node of the smaller grid. Starting the shard
// goroutines every round, with the round captured by reference, cost 1, 8
// and 12 allocations per round at workers 1, 2 and 4. A per-round cost that
// scales with n — one buffer per node, or one buffer of n entries — makes
// the two grids differ. The allocation slope is rounded to a whole
// allocation: a garbage collection during the larger grid's runs can add
// one allocation to a run, which moves the raw slope by 1/56.
func TestSchedulerAllocsPerRoundIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode adds allocations of its own; allocation counts are not reproducible")
	}
	const short, long, runs = 8, 64, 10
	const sides = 2
	for _, workers := range []int{1, 2, 4} {
		var allocs, bytes [sides]float64
		for i, side := range [sides]int{32, 64} {
			g := graph.Grid2D(side, side)
			p := &preboxedFlood{source: g.ID(0), outbox: make([]Message, g.MaxDegree())}
			for j := range p.outbox {
				p.outbox[j] = any(struct{ x, y int }{1, 2})
			}
			// perRun averages a run's allocations over runs runs on one P,
			// as testing.AllocsPerRun does, and also reports their bytes.
			perRun := func(rounds int) (mallocs, total float64) {
				p.rounds = rounds
				run := func() {
					_, st, err := Run(g, p, nil, RunConfig{Workers: workers})
					if err != nil || st.Rounds != rounds {
						t.Fatalf("%s workers %d: %d rounds, err %v; want %d rounds", g, workers, st.Rounds, err, rounds)
					}
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				run() // warm the CSR snapshot
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for r := 0; r < runs; r++ {
					run()
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
			}
			a0, b0 := perRun(short)
			a1, b1 := perRun(long)
			allocs[i] = math.Round((a1 - a0) / (long - short))
			bytes[i] = (b1 - b0) / (long - short)
			t.Logf("workers %d, grid %dx%d: %.1f allocations and %.0f bytes per run at %d rounds, %.1f and %.0f at %d",
				workers, side, side, a0, b0, short, a1, b1, long)
		}
		if allocs[0] != allocs[1] {
			t.Errorf("workers %d: each extra round adds %.0f allocations on grid 32x32 but %.0f on grid 64x64; want equal",
				workers, allocs[0], allocs[1])
		}
		for i, side := range [sides]int{32, 64} {
			if allocs[i] != 0 {
				t.Errorf("workers %d, grid %dx%d: each extra round adds %.0f allocations, want 0",
					workers, side, side, allocs[i])
			}
		}
		if math.Abs(bytes[1]-bytes[0]) >= 32*32 {
			t.Errorf("workers %d: each extra round allocates %.0f bytes on grid 32x32 but %.0f on grid 64x64; want equal",
				workers, bytes[0], bytes[1])
		}
	}
}
