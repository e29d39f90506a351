package local

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// RunConfig configures an engine run: the worker count shared by every
// engine, an optional fault-injection plan, an optional metrics collector,
// the frugal engine's skeleton radius and the schema-level DetLLL switch.
// The zero value is a fault-free, unobserved run at the default fan-out.
type RunConfig struct {
	// Workers is the number of goroutines the engine fans out over; see
	// normalize for the exact resolution contract (the single source of
	// truth). Outputs, rounds, and message counts are byte-for-byte
	// identical for every worker count.
	Workers int

	// Fault, when non-nil and active, injects deterministic faults into the
	// run: advice corruption and ID reassignment are applied once before the
	// engine starts (the inputs are not mutated), and crash faults remove
	// the crashed node from the configured round on, leaving a
	// fault.CrashError in its output slot. A nil plan is fault-free.
	Fault *fault.Plan

	// Metrics, when non-nil, receives per-round cost metrics (wall time,
	// messages, bytes, active nodes, per-shard sweep timing) and events
	// from the run. When nil the engine falls back to the process-wide
	// collector (obs.SetDefault); with neither installed, instrumentation
	// is a nil check — no allocations, no clock reads — and outputs are
	// byte-identical to an uninstrumented build.
	Metrics *obs.Collector

	// FrugalRadius is the skeleton cluster radius ρ used by RunFrugal;
	// zero selects the package default (DefaultFrugalRadius) and negative
	// values are rejected with an error wrapping ErrFrugalRadius. The
	// other engines ignore it. Larger ρ means fewer, deeper clusters —
	// fewer skeleton edges but a larger 2ρ+1 round overhead.
	FrugalRadius int

	// DetLLL selects the deterministic LLL pipeline for schemas whose
	// advice placement is an LLL instance (orient shift placement, the
	// ruling-group selection of the 3-coloring schema): encoders resolve
	// the instance by conditional expectations instead of Moser–Tardos
	// resampling, so the advice — and therefore every engine output — is a
	// pure function of the graph, bit-identical across engines, worker
	// counts, AND rng seeds. The engines themselves never read it (advice
	// is fixed before a run starts); it rides on RunConfig because RunConfig
	// is the one configuration value threaded from the CLI/server/harness
	// down to every schema execution, and the schema adapters
	// (harness.DetSchemas, the server's det-mode schema entries) consult it
	// when choosing the encoder. Derived cache keys for det-mode artifacts
	// drop the seed component (DESIGN.md decision 12).
	DetLLL bool
}

// normalize resolves the configured worker count for an n-node run. This
// is the single source of truth for the Workers contract, shared by every
// engine (ball, scheduler, frugal; the sequential engine is single-threaded
// by design) so they cannot drift:
//
//   - negative clamps to sequential (one worker);
//   - zero takes the process default fixed by SetDefaultWorkers if one is
//     set, else one worker below parallelThreshold nodes (fan-out costs
//     more than it saves on tiny graphs), else runtime.GOMAXPROCS(0);
//   - the result is capped to [1, max(n, 1)], so a worker count above the
//     node count (e.g. 8 workers on a 4-node graph) clamps to n.
//
// TestNormalizeWorkers pins this table.
func (cfg RunConfig) normalize(n int) int {
	w := cfg.Workers
	switch {
	case w < 0:
		w = 1
	case w == 0:
		w = int(defaultWorkers.Load())
		if w == 0 && n < parallelThreshold {
			w = 1
		}
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// collector resolves the metrics destination for this run: the explicit
// RunConfig.Metrics if set, else the process-wide default (normally nil).
// Call once per run, not per round.
func (cfg RunConfig) collector() *obs.Collector {
	if cfg.Metrics != nil {
		return cfg.Metrics
	}
	return obs.Default()
}

// applyFault resolves the config's fault plan against the run's inputs,
// returning the (possibly replaced) graph and advice the engine should
// execute with. Fault-free configs return the inputs unchanged. When a
// collector is active, the injected damage is recorded as fault.* events.
func (cfg RunConfig) applyFault(g *graph.Graph, advice Advice) (*graph.Graph, Advice) {
	if !cfg.Fault.Active() {
		return g, advice
	}
	fg, fadv, rep := cfg.Fault.Apply(g, advice)
	if m := cfg.collector(); m.Enabled() {
		for _, e := range rep.Events() {
			m.Emit(e.Kind, e.Label, e.Value)
		}
	}
	return fg, Advice(fadv)
}

// defaultWorkers holds the process-wide worker count a zero
// RunConfig.Workers resolves to; 0 means unset (see normalize).
var defaultWorkers atomic.Int32

// SetDefaultWorkers fixes the worker count every engine run with
// RunConfig.Workers == 0 uses; n <= 0 restores the size-based default (one
// worker below parallelThreshold nodes, GOMAXPROCS above). The locad CLI's
// -workers flag calls this once at startup so every decoder in the process
// inherits the setting.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// parallelThreshold is the node count below which a zero Workers value
// (with no process default set) resolves to one worker: on tiny graphs
// goroutine fan-out costs more than it saves. An explicit Workers value is
// always honored.
const parallelThreshold = 256

// validateAdvice rejects a malformed advice assignment: advice, when
// present, must assign a (possibly empty) string to every node. The original
// engine silently treated out-of-range nodes as empty-advice, which hid
// encoder errors; every engine entry point returns this error before the
// engine starts, and BuildView panics with it.
func validateAdvice(g *graph.Graph, advice Advice) error {
	if advice != nil && len(advice) != g.N() {
		return fmt.Errorf("%w: advice has %d entries for a %d-node graph (advice must be nil or cover every node)",
			ErrAdviceLength, len(advice), g.N())
	}
	return nil
}

// mustValidateAdvice is validateAdvice for BuildView, whose signature has
// no error return.
func mustValidateAdvice(g *graph.Graph, advice Advice) {
	if err := validateAdvice(g, advice); err != nil {
		panic(err)
	}
}

// viewBuilder is one ball-engine worker's reusable state: the View that
// RunBall resets for every node the worker evaluates, the BFS scratch the
// view grows in, and the Ball (with its subgraph and ID and edge buffers)
// that Materialize rebuilds in place. Once a worker has held its largest
// view, evaluating a node allocates nothing. A viewBuilder is not safe for
// concurrent use; each worker takes its own from builderPool.
type viewBuilder struct {
	bfs  graph.BFSScratch
	view View

	ball  Ball
	sub   graph.Graph
	ids   []int64
	edges []graph.Edge
}

// newViewBuilder returns an empty builder whose view grows in its BFS
// scratch and materializes into its Ball.
func newViewBuilder() *viewBuilder {
	b := new(viewBuilder)
	b.view.bfs, b.view.b, b.ball.G = &b.bfs, b, &b.sub
	return b
}

// builderPool backs BuildView and RunBall's workers, so that one-off
// callers also reuse scratch.
var builderPool = sync.Pool{New: func() any { return newViewBuilder() }}

// fill overwrites ball (whose G must be non-nil) with v's whole ball,
// reusing ball's storage where it is large enough.
func (b *viewBuilder) fill(ball *Ball, v *View) {
	nodes := v.Nodes()
	k := len(nodes)

	b.ids = b.ids[:0]
	for _, u := range nodes {
		b.ids = append(b.ids, v.g.ID(int(u)))
	}
	// Collect the visible edges: both endpoints in the ball, at least one
	// endpoint strictly inside radius (a node learns an edge in T rounds
	// only if some endpoint is at distance <= T-1). Edges are emitted in
	// the same order the incremental constructor would add them, so the
	// subgraph's adjacency order follows the BFS order.
	b.edges = b.edges[:0]
	for i, u := range nodes {
		du := v.bfs.Dist(int(u))
		for _, w := range v.g.Neighbors(int(u)) {
			j := v.bfs.Pos(w)
			if j <= i { // outside the ball (-1) or already emitted from the other side
				continue
			}
			if du >= v.Radius && v.bfs.Dist(w) >= v.Radius {
				continue
			}
			b.edges = append(b.edges, graph.Edge{U: i, V: j})
		}
	}
	ball.G.Rebuild(b.ids, b.edges)

	ball.Center = 0 // the center is the BFS source, always first
	ball.Dist = slices.Grow(ball.Dist[:0], k)[:k]
	ball.Advice = slices.Grow(ball.Advice[:0], k)[:k]
	ball.TrueDegree = slices.Grow(ball.TrueDegree[:0], k)[:k]
	ball.Radius, ball.N, ball.Delta = v.Radius, v.N, v.Delta
	for i, u := range nodes {
		ball.Dist[i] = v.bfs.Dist(int(u))
		ball.TrueDegree[i] = v.TrueDegree(int(u))
		ball.Advice[i] = bitstr.String{}
		if int(u) < len(v.Advice) {
			ball.Advice[i] = v.Advice[u]
		}
	}
}

// testHookRunBall, when non-nil, is called with every output RunBall
// computes and what it was computed from. Only tests set it
// (export_test.go), to rerun algo on BuildView's view of the same node.
var testHookRunBall func(g *graph.Graph, advice Advice, v, radius int, algo BallAlgorithm, out any)

// RunBall executes a ball algorithm with the given radius on every node of
// g and returns the per-node outputs. The round count is exactly the
// radius. The algorithm must be a pure function of the view (all
// production decoders are); outputs are written by node index, so the
// result is identical for any worker count (cfg.Workers, resolved by
// RunConfig.normalize).
//
// Each worker hands its algorithm one View over g, reset for every node it
// evaluates and grown only as far as the algorithm reads, so the view (and
// its Ball and the slices its methods return) is valid only during the
// call; see BallAlgorithm. Callers that keep views build them with
// BuildView. With a metrics collector, the run emits ball.views (the views
// evaluated) and ball.view_nodes (the nodes those views stamped).
//
// A negative radius (an error wrapping ErrNegativeRadius) and malformed
// advice (wrapping ErrAdviceLength) are reported before the engine starts.
// A panic in algo reaches the caller's goroutine at any worker count.
// When cfg.Fault is active, advice corruption and ID reassignment are
// applied first, and a node crashed within the decoding radius produces no
// output — its output slot holds a fault.CrashError. The ball engine has no
// per-round message flow, so a crash cannot additionally starve the views
// of other nodes; the message engines model that part.
func RunBall(g *graph.Graph, advice Advice, radius int, algo BallAlgorithm, cfg RunConfig) ([]any, Stats, error) {
	if err := validateRadius(radius); err != nil {
		return nil, Stats{}, err
	}
	if err := validateAdvice(g, advice); err != nil {
		return nil, Stats{}, err
	}
	g, advice = cfg.applyFault(g, advice)
	n := g.N()
	workers := cfg.normalize(n)
	crashed := -1
	if cfg.Fault != nil && cfg.Fault.CrashRound > 0 && cfg.Fault.CrashRound <= radius {
		crashed = cfg.Fault.CrashNode
	}
	outputs := make([]any, n)
	if n == 0 {
		return outputs, Stats{Rounds: radius}, nil
	}
	delta := g.Snapshot().MaxDegree()
	viewAdvice := []bitstr.String(advice)
	if viewAdvice == nil {
		viewAdvice = make([]bitstr.String, n)
	}

	// Metrics: the ball engine has no per-round message flow, so it records
	// a single round entry (round = radius) with the total and per-worker
	// time. Active nodes excludes a node crashed within the radius (it gets
	// no view).
	m := cfg.collector()
	var (
		runID      int
		runStart   time.Time
		shardNanos []int64
	)
	if m.Enabled() {
		runID = m.BeginRun("ball", n)
		shardNanos = make([]int64, workers)
		runStart = time.Now()
	}
	finish := func(viewNodes int64) {
		if !m.Enabled() {
			return
		}
		active := n
		if crashed >= 0 && crashed < n {
			active--
			m.Emit("fault.crash", "", 1)
		}
		m.RecordRound(obs.RoundMetric{Engine: "ball", Run: runID, Round: radius,
			ActiveNodes: active, WallNanos: time.Since(runStart).Nanoseconds(),
			ShardNanos: shardNanos})
		m.Emit("ball.views", "", int64(active))
		m.Emit("ball.view_nodes", "", viewNodes)
	}

	// sweep evaluates nodes from next until it runs out, and returns the
	// number of nodes the worker's views stamped.
	sweep := func(b *viewBuilder, next *atomic.Int64) int64 {
		var stamped int64
		for {
			v := int(next.Add(1)) - 1
			if v >= n {
				return stamped
			}
			if v == crashed {
				outputs[v] = fault.CrashError{Node: v, Round: cfg.Fault.CrashRound}
				continue
			}
			b.view.reset(g, nil, viewAdvice, v, radius, n, delta)
			outputs[v] = algo(&b.view)
			stamped += int64(b.view.stamped())
			if testHookRunBall != nil {
				testHookRunBall(g, advice, v, radius, algo, outputs[v])
			}
		}
	}

	if workers <= 1 {
		b := builderPool.Get().(*viewBuilder)
		defer builderPool.Put(b)
		var next atomic.Int64
		stamped := sweep(b, &next)
		if m.Enabled() {
			shardNanos[0] = time.Since(runStart).Nanoseconds()
		}
		finish(stamped)
		return outputs, Stats{Rounds: radius}, nil
	}

	var (
		next, viewNodes atomic.Int64
		wg              sync.WaitGroup
		panicOnce       sync.Once
		panicked        any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panic in algo is recovered here and re-raised on the
			// caller's goroutine once every worker has stopped, as it
			// would be with one worker, so a caller's recover still sees
			// it; the other workers stop at their next node.
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
					next.Store(int64(n))
				}
			}()
			var shardStart time.Time
			if m.Enabled() {
				shardStart = time.Now()
			}
			b := builderPool.Get().(*viewBuilder)
			defer builderPool.Put(b)
			viewNodes.Add(sweep(b, &next))
			if m.Enabled() {
				shardNanos[w] = time.Since(shardStart).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	finish(viewNodes.Load())
	return outputs, Stats{Rounds: radius}, nil
}
