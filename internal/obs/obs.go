// Package obs is the run-metrics and tracing layer of the simulator: a
// zero-cost-when-disabled instrumentation surface the execution engines
// (ball, scheduler, sequential, frugal), the Moser–Tardos solver,
// and the fault-injection layer report into.
//
// The design mirrors the paper's cost model: everything the paper counts —
// rounds, messages, bits, resampling counts — is a deterministic function of
// the execution, so the deterministic fields of every RoundMetric (round
// number, active nodes, messages, bytes) are bit-identical for every worker
// count and every engine pinned by the equivalence tests. Wall-clock fields
// (WallNanos, ShardNanos) are measurements of this machine and are excluded
// from the determinism contract.
//
// A Collector is enabled by threading it through local.RunConfig{Metrics},
// or process-wide via SetDefault (the same idiom as
// local.SetDefaultWorkers, used by the locad CLI's -trace/-summary flags).
// When no collector is installed the instrumentation is a nil check on the
// hot path: no allocations, no clock reads, no atomic traffic beyond what
// the engines already do. Every Collector method is safe on a nil receiver.
package obs

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// RoundMetric is one engine round's cost profile. Round, ActiveNodes,
// Messages, Bytes and the Logical* fields are deterministic (identical
// across worker counts and across the equivalent engines); WallNanos and
// ShardNanos are wall-clock measurements.
//
// Messages and Bytes always describe the traffic the engine actually put on
// its transport. For every stock engine that is also the protocol's logical
// traffic, and the Logical* fields stay zero. The frugal engine
// (local.RunFrugal) sends aggregated bundles along a sparse skeleton
// instead, so its Messages/Bytes count skeleton traffic while
// LogicalMessages/LogicalBytes record what the simulated protocol emitted —
// the split is the engine's measured message reduction.
type RoundMetric struct {
	Engine          string  `json:"engine"`
	Run             int     `json:"run"`
	Round           int     `json:"round"`
	ActiveNodes     int     `json:"active_nodes"`
	Messages        int64   `json:"messages"`
	Bytes           int64   `json:"bytes"`
	LogicalMessages int64   `json:"logical_messages,omitempty"`
	LogicalBytes    int64   `json:"logical_bytes,omitempty"`
	WallNanos       int64   `json:"wall_nanos"`
	ShardNanos      []int64 `json:"shard_nanos,omitempty"`
}

// Deterministic returns the worker-count-independent projection of the
// metric: the fields the cross-worker determinism tests compare.
func (r RoundMetric) Deterministic() RoundMetric {
	return RoundMetric{Engine: r.Engine, Run: r.Run, Round: r.Round,
		ActiveNodes: r.ActiveNodes, Messages: r.Messages, Bytes: r.Bytes,
		LogicalMessages: r.LogicalMessages, LogicalBytes: r.LogicalBytes}
}

// Event is a counted occurrence outside the round loop: LLL resampling
// totals, injected-fault reports, crash activations, view builds.
type Event struct {
	Kind  string `json:"kind"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

// Collector accumulates round metrics and events from any number of engine
// runs. It is safe for concurrent use (engines sweep shards in parallel and
// aggregate before recording, but several engines or experiments may share
// one collector). The zero value is ready to use.
type Collector struct {
	mu          sync.Mutex
	runSeq      int
	rounds      []RoundMetric
	events      []Event
	startWall   time.Time
	stopWall    time.Time
	started     bool
	stopped     bool
	startAllocs uint64
	startMalloc uint64
	allocBytes  uint64
	mallocs     uint64
}

// Enabled reports whether metrics should be recorded; it is the hot-path
// guard and allocates nothing.
func (c *Collector) Enabled() bool { return c != nil }

// Start snapshots wall clock and allocator state; Stop closes the window.
// The Summary's WallNanos, AllocBytes and Mallocs are Start..Stop deltas
// (zero if Start was never called).
func (c *Collector) Start() {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	c.started = true
	c.stopped = false
	c.startWall = time.Now()
	c.startAllocs = ms.TotalAlloc
	c.startMalloc = ms.Mallocs
	c.mu.Unlock()
}

// Stop closes the measurement window opened by Start. Calling Stop more
// than once keeps the first closing snapshot.
func (c *Collector) Stop() {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	if c.started && !c.stopped {
		c.stopped = true
		c.stopWall = time.Now()
		c.allocBytes = ms.TotalAlloc - c.startAllocs
		c.mallocs = ms.Mallocs - c.startMalloc
	}
	c.mu.Unlock()
}

// BeginRun opens a new engine run scope and returns its id; every
// RoundMetric of that run should carry the id so traces with several runs
// (an experiment decodes many times) stay separable.
func (c *Collector) BeginRun(engine string, nodes int) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	c.runSeq++
	id := c.runSeq
	c.events = append(c.events, Event{Kind: "run.begin", Label: engine, Value: int64(nodes)})
	c.mu.Unlock()
	return id
}

// RecordRound appends one round's metrics.
func (c *Collector) RecordRound(rm RoundMetric) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rounds = append(c.rounds, rm)
	c.mu.Unlock()
}

// Emit appends a counted event.
func (c *Collector) Emit(kind, label string, value int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, Event{Kind: kind, Label: label, Value: value})
	c.mu.Unlock()
}

// Rounds returns a copy of the recorded round metrics, in recording order.
func (c *Collector) Rounds() []RoundMetric {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundMetric, len(c.rounds))
	copy(out, c.rounds)
	return out
}

// Events returns a copy of the recorded events, in recording order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// defaultCollector is the process-wide collector engines fall back to when
// RunConfig.Metrics is nil — the same pattern as local.SetDefaultWorkers.
// Unset (the normal state) it costs one atomic load per engine run.
var defaultCollector atomic.Pointer[Collector]

// Default returns the process-wide collector, or nil when none is
// installed.
func Default() *Collector { return defaultCollector.Load() }

// SetDefault installs (or, with nil, removes) the process-wide collector.
// The locad CLI's -trace/-summary paths install one per experiment; library
// callers normally thread a Collector through RunConfig.Metrics instead.
func SetDefault(c *Collector) { defaultCollector.Store(c) }

// approxSizeDepth caps the recursion of ApproxSize so adversarial or
// accidentally cyclic payloads cannot hang the instrumentation.
const approxSizeDepth = 8

// ApproxSize deterministically estimates the in-memory footprint of a
// message payload in bytes: fixed-size kinds count their reflect size,
// strings/slices/maps add their elements, pointers and interfaces follow
// one level. Equal values always yield equal sizes, so per-round byte
// counts are worker-count independent. The walk is depth-capped; beyond
// the cap only the top-level size is counted.
func ApproxSize(v any) int64 {
	if v == nil {
		return 0
	}
	return approxSize(reflect.ValueOf(v), approxSizeDepth)
}

func approxSize(rv reflect.Value, depth int) int64 {
	if !rv.IsValid() {
		return 0
	}
	size := int64(rv.Type().Size())
	if depth <= 0 {
		return size
	}
	switch rv.Kind() {
	case reflect.String:
		size += int64(rv.Len())
	case reflect.Slice:
		for i := 0; i < rv.Len(); i++ {
			size += approxSize(rv.Index(i), depth-1)
		}
	case reflect.Array:
		// Array elements are inline in Size(); only count indirect storage.
		for i := 0; i < rv.Len(); i++ {
			el := rv.Index(i)
			size += approxSize(el, depth-1) - int64(el.Type().Size())
		}
	case reflect.Map:
		iter := rv.MapRange()
		for iter.Next() {
			size += approxSize(iter.Key(), depth-1)
			size += approxSize(iter.Value(), depth-1)
		}
	case reflect.Pointer:
		if !rv.IsNil() {
			size += approxSize(rv.Elem(), depth-1)
		}
	case reflect.Interface:
		if !rv.IsNil() {
			size += approxSize(rv.Elem(), depth-1)
		}
	case reflect.Struct:
		// The top-level Size() already covers the fields' inline storage;
		// only indirect storage (strings, slices, pointers) needs adding.
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			switch f.Kind() {
			case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
				size += approxSize(f, depth-1) - int64(f.Type().Size())
			}
		}
	}
	return size
}
