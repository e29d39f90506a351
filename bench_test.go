// Benchmark harness: one benchmark per experiment table (E1-E8), each of
// which (a) regenerates and logs its EXPERIMENTS.md table once and (b)
// times the experiment's core decoding operation, plus micro-benchmarks for
// the substrate layers. Run with:
//
//	go test -bench=. -benchmem
package localadvice_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/coloring"
	"localadvice/internal/core"
	"localadvice/internal/decomp"
	"localadvice/internal/decompress"
	"localadvice/internal/edgecolor"
	"localadvice/internal/eth"
	"localadvice/internal/graph"
	"localadvice/internal/growth"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/lll"
	"localadvice/internal/local"
	"localadvice/internal/orient"
)

// tableOnce logs each experiment's table a single time per test binary run.
var tableOnce sync.Map

func logTable(b *testing.B, id string) {
	once, _ := tableOnce.LoadOrStore(id, &sync.Once{})
	once.(*sync.Once).Do(func() {
		e, ok := harness.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		table, err := e.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		table.Render(&sb)
		b.Logf("\n%s", sb.String())
	})
}

func BenchmarkE1LCLGrowth(b *testing.B) {
	logTable(b, "E1")
	g := graph.Cycle(600)
	s := growth.Schema{
		Problem:       lcl.Coloring{K: 3},
		ClusterRadius: 60,
		Solver: func(g *graph.Graph) (*lcl.Solution, error) {
			return lcl.ColoringSolution(g, lcl.GreedyColoring(g))
		},
	}
	advice, err := s.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Decode(g, advice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2AdviceSearch(b *testing.B) {
	logTable(b, "E2")
	g := graph.Cycle(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eth.AdviceSearch(lcl.MIS{}, g, 1, eth.MISDecoder)
		if err != nil || !res.Found {
			b.Fatalf("search failed: %v", err)
		}
	}
}

func BenchmarkE3Orientation(b *testing.B) {
	logTable(b, "E3")
	g := graph.Cycle(800)
	s := orient.Schema{P: orient.DefaultParams()}
	va, err := s.EncodeVar(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.DecodeVar(g, va, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4Decompress(b *testing.B) {
	logTable(b, "E4")
	rng := rand.New(rand.NewSource(4))
	g, err := graph.RandomRegular(160, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make(decompress.EdgeSet)
	for e := 0; e < g.M(); e++ {
		if rng.Intn(2) == 0 {
			x[e] = true
		}
	}
	codec := decompress.Oriented{P: orient.Params{MarkSpacing: 20, MarkWindow: 20}}
	advice, err := codec.Encode(g, x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, _, err := codec.Decode(g, advice)
		if err != nil || !decoded.Equal(x) {
			b.Fatalf("roundtrip failed: %v", err)
		}
	}
}

func BenchmarkE5DeltaColoring(b *testing.B) {
	logTable(b, "E5")
	rng := rand.New(rand.NewSource(5))
	g, _ := graph.RandomColorable(50, 4, 0.22, rng)
	graph.AssignPermutedIDs(g, rng)
	delta := g.MaxDegree()
	p := coloring.NewDeltaPipeline(delta, 4)
	va, err := p.EncodeVar(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.DecodeVar(g, va, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6ThreeColoring(b *testing.B) {
	logTable(b, "E6")
	g := graph.Cycle(160)
	schema := coloring.ThreeColoring{CoverRadius: 10, GroupSpread: 2}
	advice, err := schema.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := schema.Decode(g, advice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7EdgeColoring(b *testing.B) {
	logTable(b, "E7")
	g := graph.Torus2D(6, 10)
	s := edgecolor.New(4)
	va, err := s.EncodeVar(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.DecodeVar(g, va, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Sparsity(b *testing.B) {
	logTable(b, "E8")
	g := graph.Cycle(1200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := orient.Schema{P: orient.Params{MarkSpacing: 48, MarkWindow: 12}}
		if _, err := s.EncodeVar(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkMarkerCodeRoundtrip(b *testing.B) {
	payload := bitstr.MustParse("110100111010")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := bitstr.MarkerEncode(payload)
		if _, _, err := bitstr.MarkerDecode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrailDecompose(b *testing.B) {
	g := graph.Torus2D(20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := orient.Decompose(g)
		if len(dec.Trails) == 0 {
			b.Fatal("no trails")
		}
	}
}

func BenchmarkBuildView(b *testing.B) {
	g := graph.Grid2D(30, 30)
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(v % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := local.BuildView(g, advice, 450, 6)
		if view.Materialize().G.N() == 0 {
			b.Fatal("empty view")
		}
	}
}

func BenchmarkMessageEngine(b *testing.B) {
	// local.Run is the sharded scheduler; BenchmarkEngineSequential tracks
	// the sequential oracle on the same shape of workload.
	g := graph.Grid2D(10, 10)
	proto := &local.GatherProtocol{Radius: 2, Decide: func(view *local.View) any { return len(view.Nodes()) }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := local.Run(g, proto, nil, local.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneBitCodec(b *testing.B) {
	g := graph.Cycle(300)
	codec := core.OneBitCodec{Radius: 40}
	va := core.VarAdvice{0: bitstr.MustParse("1011"), 150: bitstr.MustParse("0010")}
	advice, err := codec.Encode(g, va)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decode(g, advice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMoserTardos(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	clauseVars := make([][]int, 60)
	clauseNeg := make([][]bool, 60)
	for c := range clauseVars {
		clauseVars[c] = rng.Perm(80)[:7]
		clauseNeg[c] = make([]bool, 7)
		for i := range clauseNeg[c] {
			clauseNeg[c][i] = rng.Intn(2) == 0
		}
	}
	in := &lll.Instance{
		NumVars:    80,
		DomainSize: func(int) int { return 2 },
		NumEvents:  60,
		Vars:       func(e int) []int { return clauseVars[e] },
		Bad: func(e int, a []int) bool {
			for i, v := range clauseVars[e] {
				val := a[v] == 1
				if clauseNeg[e][i] {
					val = !val
				}
				if val {
					return false
				}
			}
			return true
		},
	}
	b.ResetTimer()
	resamplings := 0
	for i := 0; i < b.N; i++ {
		res, err := lll.Solve(in, rng, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		resamplings += res.Resamplings
	}
	b.ReportMetric(float64(resamplings)/b.Elapsed().Seconds(), "resamplings/s")
}

// BenchmarkMoserTardosLarge exercises the dense violated-set bookkeeping on
// an instance big enough that resampling dominates: random 5-SAT with 500
// variables and 1200 overlapping clauses.
func BenchmarkMoserTardosLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	clauseVars := make([][]int, 1200)
	clauseNeg := make([][]bool, 1200)
	for c := range clauseVars {
		clauseVars[c] = rng.Perm(500)[:5]
		clauseNeg[c] = make([]bool, 5)
		for i := range clauseNeg[c] {
			clauseNeg[c][i] = rng.Intn(2) == 0
		}
	}
	in := &lll.Instance{
		NumVars:    500,
		DomainSize: func(int) int { return 2 },
		NumEvents:  1200,
		Vars:       func(e int) []int { return clauseVars[e] },
		Bad: func(e int, a []int) bool {
			for i, v := range clauseVars[e] {
				val := a[v] == 1
				if clauseNeg[e][i] {
					val = !val
				}
				if val {
					return false
				}
			}
			return true
		},
	}
	b.ResetTimer()
	resamplings := 0
	for i := 0; i < b.N; i++ {
		res, err := lll.Solve(in, rng, 1<<22)
		if err != nil {
			b.Fatal(err)
		}
		resamplings += res.Resamplings
	}
	b.ReportMetric(float64(resamplings)/b.Elapsed().Seconds(), "resamplings/s")
}

func BenchmarkLLLDependencyDegree(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	clauseVars := make([][]int, 1200)
	for c := range clauseVars {
		clauseVars[c] = rng.Perm(500)[:5]
	}
	in := &lll.Instance{
		NumVars:    500,
		DomainSize: func(int) int { return 2 },
		NumEvents:  1200,
		Vars:       func(e int) []int { return clauseVars[e] },
		Bad:        func(int, []int) bool { return false },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := lll.DependencyDegree(in); d == 0 {
			b.Fatal("degenerate instance")
		}
	}
}

func BenchmarkGreedyColoring(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomGNP(300, 0.05, rng)
	graph.AssignPermutedIDs(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if colors := lcl.GreedyColoring(g); colors[0] == 0 {
			b.Fatal("uncolored")
		}
	}
}

func BenchmarkSolve3Coloring(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g, _ := graph.RandomColorable(80, 3, 0.1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := coloring.Solve3Coloring(g); !ok {
			b.Fatal("unsolved")
		}
	}
}

func BenchmarkGroupedOneBitCodec(b *testing.B) {
	g := graph.Cycle(900)
	codec := core.GroupedOneBitCodec{Radius: 180, GroupRadius: 2}
	va := core.VarAdvice{
		100: bitstr.MustParse("1101"),
		101: bitstr.MustParse("01"),
		550: bitstr.MustParse("1"),
	}
	advice, err := codec.Encode(g, va)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decode(g, advice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinialReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := graph.RandomGNP(200, 0.04, rng)
	graph.AssignSpreadIDs(g, rng)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = int(g.ID(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coloring.LinialReduceToQuadratic(g, colors); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubicTwoBit(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	g, err := graph.RandomRegular(100, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make(decompress.EdgeSet)
	for e := 0; e < g.M(); e++ {
		if rng.Intn(2) == 0 {
			x[e] = true
		}
	}
	advice, err := decompress.CubicTwoBit{}.Encode(g, x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, _, err := decompress.CubicTwoBit{}.Decode(g, advice)
		if err != nil || !decoded.Equal(x) {
			b.Fatal("roundtrip failed")
		}
	}
}

func BenchmarkFindAlpha(b *testing.B) {
	g := graph.Grid2D(61, 61)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := growth.FindAlpha(g, 30*61+30, 2, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProofVerify(b *testing.B) {
	g := graph.Cycle(400)
	s := growth.Schema{
		Problem:       lcl.Coloring{K: 3},
		ClusterRadius: 40,
		Solver: func(g *graph.Graph) (*lcl.Solution, error) {
			return lcl.ColoringSolution(g, lcl.GreedyColoring(g))
		},
	}
	proof, err := s.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.VerifyProof(g, proof)
		if err != nil || !res.Accepted {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkBFSWithin measures the bounded scratch BFS against the size of
// the ball, not the graph: the asymptotic win of the view engine.
func BenchmarkBFSWithin(b *testing.B) {
	g := graph.Grid2D(64, 64)
	g.Snapshot()
	s := graph.NewBFSScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ball := g.BFSWithin(2080, 6, s); len(ball) == 0 {
			b.Fatal("empty ball")
		}
	}
}

// BenchmarkRunBallParallel sweeps worker counts on an n=4096 bounded-degree
// graph; outputs are identical across all sub-benchmarks by construction.
func BenchmarkRunBallParallel(b *testing.B) {
	g := graph.Grid2D(64, 64)
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(v % 2)
	}
	count := func(view *local.View) any { return len(view.Nodes()) }
	for _, workers := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := local.RunBall(g, advice, 4, count, local.RunConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if out[0].(int) == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// --- large bounded-degree instances (n = 4096) ---
//
// These track the view-engine hot path at a scale where the asymptotic
// difference between full-graph BFS and bounded ball-gathering dominates.

func BenchmarkBuildView4096(b *testing.B) {
	g := graph.Grid2D(64, 64)
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(v % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := local.BuildView(g, advice, 2080, 6)
		if view.Materialize().G.N() == 0 {
			b.Fatal("empty view")
		}
	}
}

func BenchmarkE1LCLGrowth4096(b *testing.B) {
	g := graph.Cycle(4096)
	s := growth.Schema{
		Problem:       lcl.Coloring{K: 3},
		ClusterRadius: 60,
		Solver: func(g *graph.Graph) (*lcl.Solution, error) {
			return lcl.ColoringSolution(g, lcl.GreedyColoring(g))
		},
	}
	advice, err := s.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Decode(g, advice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Orientation4096(b *testing.B) {
	g := graph.Cycle(4096)
	s := orient.Schema{P: orient.DefaultParams()}
	va, err := s.EncodeVar(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.DecodeVar(g, va, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5DeltaColoring512(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, _ := graph.RandomColorable(512, 4, 0.22, rng)
	graph.AssignPermutedIDs(g, rng)
	delta := g.MaxDegree()
	p := coloring.NewDeltaPipeline(delta, 4)
	va, err := p.EncodeVar(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.DecodeVar(g, va, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// floodProtocol floods the maximum ID seen so far for a fixed number of
// rounds: the message-engine reference protocol of the 4096-node grid
// benchmarks. Per-node work is a few comparisons, so these benchmarks
// measure engine overhead (scheduling, delivery, synchronization), not
// protocol computation.
type floodProtocol struct{ rounds int }

type floodMachine struct {
	rounds, degree int
	best           int64
}

func (p *floodProtocol) NewMachine(info local.NodeInfo) local.Machine {
	return &floodMachine{rounds: p.rounds, degree: info.Degree, best: info.ID}
}

func (m *floodMachine) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	for _, msg := range inbox {
		if msg == nil {
			continue
		}
		if id := msg.(int64); id > m.best {
			m.best = id
		}
	}
	if round > m.rounds {
		return nil, true
	}
	out := make([]local.Message, m.degree)
	for i := range out {
		out[i] = m.best
	}
	return out, false
}

func (m *floodMachine) Output() any { return m.best }

// benchEngine4096 runs the flood reference protocol on a 4096-node grid
// under the given message engine (default fan-out) and reports rounds/s
// alongside ns/op.
func benchEngine4096(b *testing.B, run func(*graph.Graph, local.Protocol, local.Advice, local.RunConfig) ([]any, local.Stats, error)) {
	g := graph.Grid2D(64, 64)
	proto := &floodProtocol{rounds: 8}
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, stats, err := run(g, proto, nil, local.RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if out[0].(int64) == 0 {
			b.Fatal("bad output")
		}
		rounds += stats.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

func BenchmarkEngineScheduler4096(b *testing.B) { benchEngine4096(b, local.Run) }

// BenchmarkEngineFrugal4096 times the skeleton-simulating engine on the same
// flood workload; the delta over BenchmarkEngineScheduler4096 is the cost of
// skeleton construction plus per-round change-suppression accounting.
func BenchmarkEngineFrugal4096(b *testing.B) { benchEngine4096(b, local.RunFrugal) }

// BenchmarkEngineSchedulerWorkers sweeps explicit worker counts on the
// 4096-node grid; outputs and stats are identical across all sub-benchmarks
// by the scheduler's determinism contract.
func BenchmarkEngineSchedulerWorkers(b *testing.B) {
	g := graph.Grid2D(64, 64)
	proto := &floodProtocol{rounds: 8}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := local.Run(g, proto, nil, local.RunConfig{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompose4096 times the seeded low-diameter decomposition on the
// 4096-node grid.
func BenchmarkDecompose4096(b *testing.B) {
	g := graph.Grid2D(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := decomp.Decompose(g, 0.1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if d.Balls() < 1 {
			b.Fatal("no balls")
		}
	}
}

func BenchmarkEngineSequential(b *testing.B) {
	g := graph.Grid2D(12, 12)
	proto := &local.GatherProtocol{Radius: 2, Decide: func(view *local.View) any { return len(view.Nodes()) }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := local.RunSequential(g, proto, nil, local.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
