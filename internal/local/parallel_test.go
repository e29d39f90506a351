package local

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
)

// viewFingerprint is a canonical summary of a view, read through its
// methods: sorted edge ID pairs plus sorted per-node (ID, advice, true
// degree, distance) tuples. Any difference between two views shows up in
// the fingerprint.
func viewFingerprint(view *View) any {
	return fmt.Sprintf("c%d|r%d|n%d|d%d|", view.ID(view.Center), view.Radius, view.N, view.Delta) + ballContents(view)
}

// ballContents renders the edges and nodes of view's whole ball, sorted by
// ID.
func ballContents(view *View) string {
	nodes := view.Nodes()
	var edgeFPs []string
	for _, u := range nodes {
		for _, w := range view.Neighbors(int(u)) {
			if a, b := view.ID(int(u)), view.ID(w); a < b {
				edgeFPs = append(edgeFPs, fingerprintEdge(a, b))
			}
		}
	}
	sort.Strings(edgeFPs)
	fp := strings.Join(edgeFPs, "")
	byID := make([]int, len(nodes))
	for i, u := range nodes {
		byID[i] = int(u)
	}
	sort.Slice(byID, func(a, b int) bool { return view.ID(byID[a]) < view.ID(byID[b]) })
	for _, u := range byID {
		fp += fingerprintNode(view.ID(u), view.Advice[u], view.TrueDegree(u), view.Dist(u))
	}
	return fp
}

// mustRunBall is RunBall for inputs the test knows are valid.
func mustRunBall(t *testing.T, g *graph.Graph, advice Advice, radius int, algo BallAlgorithm, cfg RunConfig) ([]any, Stats) {
	t.Helper()
	out, stats, err := RunBall(g, advice, radius, algo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// propertyGraphs is the generator sweep of the parallel/sequential
// equivalence property test: one representative per family, over a fixed
// seed set.
func propertyGraphs(t *testing.T, seed int64) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg, err := graph.RandomRegular(64, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs := map[string]*graph.Graph{
		"cycle":   graph.Cycle(40),
		"path":    graph.Path(23),
		"grid":    graph.Grid2D(6, 8),
		"torus":   graph.Torus2D(5, 7),
		"tree":    graph.CompleteBinaryTree(5),
		"star":    graph.Star(9),
		"regular": reg,
		"gnp":     graph.RandomGNP(48, 0.1, rng),
	}
	for _, g := range gs {
		graph.AssignPermutedIDs(g, rng)
	}
	return gs
}

// TestRunBallWorkerCountEquivalence is the determinism property test of the
// parallel view engine: for every graph family and seed, RunBall produces
// identical outputs and Stats with 1, 4, and GOMAXPROCS workers.
func TestRunBallWorkerCountEquivalence(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, seed := range []int64{1, 2, 3} {
		for name, g := range propertyGraphs(t, seed) {
			rng := rand.New(rand.NewSource(seed * 100))
			advice := make(Advice, g.N())
			for v := range advice {
				advice[v] = bitstr.New(rng.Intn(2))
			}
			for _, radius := range []int{0, 1, 3} {
				baseOut, baseStats := mustRunBall(t, g, advice, radius, viewFingerprint, RunConfig{Workers: workerCounts[0]})
				for _, w := range workerCounts[1:] {
					out, stats := mustRunBall(t, g, advice, radius, viewFingerprint, RunConfig{Workers: w})
					if stats != baseStats {
						t.Fatalf("seed %d %s r=%d: stats differ with %d workers: %+v vs %+v",
							seed, name, radius, w, stats, baseStats)
					}
					for v := range out {
						if out[v] != baseOut[v] {
							t.Fatalf("seed %d %s r=%d node %d: output differs with %d workers\n1 worker: %v\n%d workers: %v",
								seed, name, radius, v, w, baseOut[v], w, out[v])
						}
					}
				}
				// The default fan-out (whatever heuristic it applies) must
				// agree as well.
				defOut, defStats := mustRunBall(t, g, advice, radius, viewFingerprint, RunConfig{})
				if defStats != baseStats {
					t.Fatalf("seed %d %s r=%d: default-engine stats differ", seed, name, radius)
				}
				for v := range defOut {
					if defOut[v] != baseOut[v] {
						t.Fatalf("seed %d %s r=%d node %d: default engine differs", seed, name, radius, v)
					}
				}
			}
		}
	}
}

// TestMessageEngineAgreesWithParallelViewEngine checks that the sharded
// scheduler assembles exactly the views the parallel ball engine hands out.
func TestMessageEngineAgreesWithParallelViewEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, g := range propertyGraphs(t, 5) {
		advice := make(Advice, g.N())
		for v := range advice {
			advice[v] = bitstr.New(rng.Intn(2))
		}
		for _, radius := range []int{1, 2} {
			ballOut, _ := mustRunBall(t, g, advice, radius, viewFingerprint, RunConfig{Workers: 4})
			msgOut, _, err := Run(g, &GatherProtocol{Radius: radius, Decide: viewFingerprint}, advice, RunConfig{})
			if err != nil {
				t.Fatalf("%s radius %d: %v", name, radius, err)
			}
			for v := range ballOut {
				if ballOut[v] != msgOut[v] {
					t.Fatalf("%s radius %d node %d: engines disagree\nball: %v\nmsg:  %v",
						name, radius, v, ballOut[v], msgOut[v])
				}
			}
		}
	}
}

// TestViewBuilderReuse checks that one builder used across many nodes and
// graphs materializes exactly the balls fresh standalone builds produce.
func TestViewBuilderReuse(t *testing.T) {
	b := builderPool.New().(*viewBuilder)
	for _, g := range propertyGraphs(t, 9) {
		advice := make(Advice, g.N())
		for v := range advice {
			advice[v] = bitstr.New(v % 2)
		}
		for v := 0; v < g.N(); v += 3 {
			b.view.reset(g, nil, advice, v, 2, g.N(), g.MaxDegree())
			got := ballFingerprint(b.view.Materialize())
			want := ballFingerprint(BuildView(g, advice, v, 2).Materialize())
			if got != want {
				t.Fatalf("reused builder differs at node %d\nreused: %s\nfresh:  %s", v, got, want)
			}
		}
	}
}

// ballFingerprint renders a Ball field by field, in its own index order.
func ballFingerprint(b *Ball) string {
	return fmt.Sprintf("c%d|r%d|n%d|d%d|ids%v|edges%v|dist%v|adv%v|deg%v",
		b.Center, b.Radius, b.N, b.Delta, ballIDs(b.G), b.G.Edges(), b.Dist, b.Advice, b.TrueDegree)
}

func ballIDs(g *graph.Graph) []int64 {
	ids := make([]int64, g.N())
	for i := range ids {
		ids[i] = g.ID(i)
	}
	return ids
}

// TestViewsAreIndependent checks that views BuildView returns do not alias
// the pooled builder's storage (the returned View must be retainable).
func TestViewsAreIndependent(t *testing.T) {
	g := graph.Cycle(30)
	v1 := BuildView(g, nil, 0, 2)
	fp1 := viewFingerprint(v1)
	_ = BuildView(g, nil, 15, 3) // would clobber v1 if storage were shared
	if viewFingerprint(v1) != fp1 {
		t.Fatal("a later BuildView mutated an earlier View")
	}
}

// TestAdviceLengthValidation checks that BuildView panics on truncated
// advice and that the multi-worker ball engine reports it as a typed error;
// TestTryVariantsRejectShortAdvice covers the other entry points.
func TestAdviceLengthValidation(t *testing.T) {
	g := graph.Cycle(10)
	short := make(Advice, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BuildView accepted truncated advice")
			}
		}()
		BuildView(g, short, 0, 1)
	}()
	if _, _, err := RunBall(g, short, 1, gatherDecide, RunConfig{Workers: 2}); !errors.Is(err, ErrAdviceLength) {
		t.Errorf("RunBall: err = %v, want ErrAdviceLength", err)
	}
	// nil advice and exact-length advice stay accepted.
	BuildView(g, nil, 0, 1)
	BuildView(g, make(Advice, g.N()), 0, 1)
}

// TestRunBallPanicReachesCaller: a panic in the ball algorithm is raised on
// the caller's goroutine at every worker count, so the caller's recover sees
// the algorithm's own panic value, as it would with one worker.
func TestRunBallPanicReachesCaller(t *testing.T) {
	g := graph.Cycle(300)
	boom := errors.New("algorithm panic")
	algo := func(view *View) any {
		if view.ID(view.Center) == 151 {
			panic(boom)
		}
		return 0
	}
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				if p := recover(); p != boom {
					t.Errorf("%d workers: recovered %v, want the algorithm's panic value", workers, p)
				}
			}()
			RunBall(g, nil, 1, algo, RunConfig{Workers: workers})
		}()
	}
}

// TestRunBallLargeGraphDefaultParallel exercises the default engine above
// the parallel threshold against an explicit single worker.
func TestRunBallLargeGraphDefaultParallel(t *testing.T) {
	g := graph.Grid2D(20, 20) // 400 nodes >= parallelThreshold
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(v % 2)
	}
	seqOut, seqStats := mustRunBall(t, g, advice, 4, viewFingerprint, RunConfig{Workers: 1})
	parOut, parStats := mustRunBall(t, g, advice, 4, viewFingerprint, RunConfig{})
	if seqStats != parStats {
		t.Fatalf("stats differ: %+v vs %+v", seqStats, parStats)
	}
	for v := range seqOut {
		if seqOut[v] != parOut[v] {
			t.Fatalf("node %d differs between default and single-worker engines", v)
		}
	}
}

// messageProtocols is the protocol sweep of the scheduler-equivalence
// property test: flooding with uniform termination, staggered termination,
// and the view-gathering protocol (whose outputs are full view fingerprints).
func messageProtocols() map[string]Protocol {
	return map[string]Protocol{
		"maxID3":  &maxIDProtocol{radius: 3},
		"stagger": earlyStopProtocol{},
		"gather":  &GatherProtocol{Radius: 2, Decide: viewFingerprint},
	}
}

// TestSchedulerMatchesSequentialEngine is the engine-equivalence property
// test of the sharded scheduler: for every graph family, seed, and protocol,
// the scheduler with worker counts 1, 2, and 8 and with the default fan-out
// produces outputs, rounds, and message counts identical to the sequential
// oracle, and the frugal engine produces identical outputs.
func TestSchedulerMatchesSequentialEngine(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for gname, g := range propertyGraphs(t, seed) {
			rng := rand.New(rand.NewSource(seed * 31))
			advice := make(Advice, g.N())
			for v := range advice {
				advice[v] = bitstr.New(rng.Intn(2))
			}
			for pname, p := range messageProtocols() {
				refOut, refStats, err := RunSequential(g, p, advice, RunConfig{})
				if err != nil {
					t.Fatalf("seed %d %s/%s: sequential engine: %v", seed, gname, pname, err)
				}
				check := func(engine string, out []any, stats Stats, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("seed %d %s/%s: %s: %v", seed, gname, pname, engine, err)
					}
					if stats != refStats {
						t.Fatalf("seed %d %s/%s: %s stats %+v, sequential %+v",
							seed, gname, pname, engine, stats, refStats)
					}
					for v := range out {
						if out[v] != refOut[v] {
							t.Fatalf("seed %d %s/%s node %d: %s output %v, sequential %v",
								seed, gname, pname, v, engine, out[v], refOut[v])
						}
					}
				}
				for _, w := range []int{1, 2, 8, 0} {
					out, stats, err := Run(g, p, advice, RunConfig{Workers: w})
					check(fmt.Sprintf("scheduler(workers=%d)", w), out, stats, err)
				}
				// The frugal engine must produce bit-identical outputs at
				// every worker count. Its Stats count skeleton transport and
				// forwarding overhead instead of protocol traffic, so they
				// are pinned against the first frugal run (worker
				// independence) and the known 2ρ+1 round overhead rather
				// than against the sequential engine.
				var frugalRef Stats
				for i, w := range []int{-1, 1, 8} {
					out, stats, err := RunFrugal(g, p, advice, RunConfig{Workers: w})
					engine := fmt.Sprintf("frugal(workers=%d)", w)
					if err != nil {
						t.Fatalf("seed %d %s/%s: %s: %v", seed, gname, pname, engine, err)
					}
					if i == 0 {
						frugalRef = stats
					} else if stats != frugalRef {
						t.Fatalf("seed %d %s/%s: %s stats %+v, workers=-1 %+v",
							seed, gname, pname, engine, stats, frugalRef)
					}
					for v := range out {
						if out[v] != refOut[v] {
							t.Fatalf("seed %d %s/%s node %d: %s output %v, sequential %v",
								seed, gname, pname, v, engine, out[v], refOut[v])
						}
					}
				}
				if want := refStats.Rounds + 2*DefaultFrugalRadius + 1; frugalRef.Rounds != want {
					t.Fatalf("seed %d %s/%s: frugal rounds %d, want %d (protocol rounds + 2ρ+1)",
						seed, gname, pname, frugalRef.Rounds, want)
				}
			}
		}
	}
}

// neverDoneProtocol never terminates; the scheduler must fail at maxRounds
// instead of spinning forever.
type neverDoneProtocol struct{}

type neverDoneMachine struct{ degree int }

func (neverDoneProtocol) NewMachine(info NodeInfo) Machine {
	return &neverDoneMachine{degree: info.Degree}
}

func (m *neverDoneMachine) Round(int, []Message) ([]Message, bool) {
	return make([]Message, m.degree), false
}

func (m *neverDoneMachine) Output() any { return nil }

func TestSchedulerMaxRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("spins maxRounds rounds")
	}
	if _, _, err := Run(graph.Path(2), neverDoneProtocol{}, nil, RunConfig{}); err == nil {
		t.Fatal("non-terminating protocol did not error")
	}
}

// TestPortTableMatchesNestedScan pins the O(n+m) reverse-port derivation
// against the historical O(Σ deg(v)·deg(w)) nested-neighbor definition,
// including on a graph whose adjacency order was permuted by ID sorting.
func TestPortTableMatchesNestedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sorted := graph.RandomGNP(30, 0.2, rng)
	graph.AssignPermutedIDs(sorted, rng)
	sorted.SortAdjacencyByID()
	gs := map[string]*graph.Graph{
		"grid":     graph.Grid2D(5, 6),
		"star":     graph.Star(7),
		"isolated": graph.New(4),
		"gnp":      graph.RandomGNP(25, 0.15, rng),
		"sortedID": sorted,
	}
	for name, g := range gs {
		pt := newPortTable(g)
		for v := 0; v < g.N(); v++ {
			if got, want := int(pt.off[v+1]-pt.off[v]), g.Degree(v); got != want {
				t.Fatalf("%s: node %d has %d slots, degree %d", name, v, got, want)
			}
			for i, w := range g.Neighbors(v) {
				want := -1
				for j, u := range g.Neighbors(w) {
					if u == v && g.IncidentEdges(w)[j] == g.IncidentEdges(v)[i] {
						want = j
					}
				}
				if got := pt.reversePort(g, v, i); got != want {
					t.Fatalf("%s: reversePort(%d, %d) = %d, nested scan says %d", name, v, i, got, want)
				}
			}
		}
	}
}

// TestSchedulerPanicReachesCaller: a node program that panics on one of the
// scheduler's shard goroutines (Run, and RunFrugal, which sweeps on the
// same core) is raised on the caller's goroutine at every worker count, as
// on RunBall, instead of stopping the process.
func TestSchedulerPanicReachesCaller(t *testing.T) {
	g := graph.Cycle(300)
	boom := errors.New("node program panic")
	p := &GatherProtocol{Radius: 1, Decide: func(view *View) any {
		if view.ID(view.Center) == 151 {
			panic(boom)
		}
		return 0
	}}
	engines := map[string]func(RunConfig){
		"scheduler": func(cfg RunConfig) { Run(g, p, nil, cfg) },
		"frugal":    func(cfg RunConfig) { RunFrugal(g, p, nil, cfg) },
	}
	for name, run := range engines {
		for _, workers := range []int{1, 2, 8} {
			func() {
				defer func() {
					if r := recover(); r != boom {
						t.Errorf("%s, %d workers: recovered %v, want the node program's panic value", name, workers, r)
					}
				}()
				run(RunConfig{Workers: workers})
			}()
		}
	}
}
