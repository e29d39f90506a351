package local

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// This file implements the sharded synchronous-round scheduler, the message
// engine behind Run (and, with an accounting hook, RunFrugal). The LOCAL
// model charges only for rounds, never for messages ("message reduction is
// a free lunch"), so the simulator is free to replace physical message
// passing with shared memory as long as the round semantics are preserved
// exactly.
//
// Layout: the per-port inboxes of all nodes live in two flat []Message slabs
// (cur and next) indexed by the CSR portTable — no per-edge channels, no
// per-node inbox allocations. Each round every node reads its inbox slice
// from cur and writes one message per port into next at the precomputed
// reverse-port slot of the receiving neighbor. Every directed slot has
// exactly one writer per round (the unique sender on that edge) and cur is
// read-only while next is written, so shards of nodes can be swept by
// parallel workers without locks; the only synchronization is the WaitGroup
// join at the end of each round, after which the slabs swap roles.
//
// Determinism: outputs, doneAt, and done flags are written by node index,
// message counts are summed (order-independent), and machines communicate
// only through the slabs — so outputs, Stats.Rounds, and Stats.Messages are
// bit-identical for every worker count and identical to the sequential
// engine.

// newMachines instantiates one protocol machine per node; shared by all
// message engines so NodeInfo construction cannot drift between them.
func newMachines(g *graph.Graph, protocol Protocol, advice Advice) []Machine {
	n := g.N()
	delta := g.MaxDegree()
	machines := make([]Machine, n)
	for v := 0; v < n; v++ {
		var adv bitstr.String
		if v < len(advice) {
			adv = advice[v]
		}
		machines[v] = protocol.NewMachine(NodeInfo{
			ID:     g.ID(v),
			Degree: g.Degree(v),
			N:      n,
			Delta:  delta,
			Advice: adv,
		})
	}
	return machines
}

// Run executes protocol on g with the given advice (nil for none) using the
// sharded synchronous-round scheduler and returns each node's output plus
// execution stats. cfg carries the worker count (resolved by
// RunConfig.normalize — the single place the contract is documented),
// optional fault injection, and optional metrics collection. Outputs and
// Stats are identical for any worker count, and identical to RunSequential.
// Malformed advice is reported as an error (wrapping ErrAdviceLength)
// before the engine starts.
//
// Under an active cfg.Fault, advice corruption and ID reassignment are
// applied up front; a crashed node stops participating at its crash round
// (it sends nothing from then on and its output slot holds a
// fault.CrashError), and — unlike in the ball engine — its silence is
// observable by neighbors, whose views from that round on are missing the
// crashed node's contributions.
func Run(g *graph.Graph, protocol Protocol, advice Advice, cfg RunConfig) ([]any, Stats, error) {
	return runSchedulerCore(g, protocol, advice, cfg, nil)
}

// schedHook customizes the scheduler core for a transport-accounting engine
// (today: the frugal engine). The init factory runs once, after fault
// injection (so the skeleton is built on the faulted graph) and before the
// first round; the closure it returns runs single-threaded after each
// round's sweep barrier, sees the previous round's sends in cur and this
// round's in next, and returns the transport messages and bytes the round
// cost. When a hook is installed, Stats.Messages and the per-round
// RoundMetric Messages/Bytes report the hook's transport numbers, and the
// protocol's own traffic moves to LogicalMessages/LogicalBytes.
type schedHook struct {
	engine string
	init   func(g *graph.Graph, pt portTable) func(round int, cur, next []Message) (msgs, bytes int64)
}

// runSchedulerCore is the sharded synchronous-round scheduler shared by
// Run (nil hook) and RunFrugal. The sweep, fault and
// termination semantics are identical in both cases — a hook only observes
// the slabs between the barrier and the swap — which is what pins the
// frugal engine's outputs bit-identical to the stock engines.
func runSchedulerCore(g *graph.Graph, protocol Protocol, advice Advice, cfg RunConfig, hk *schedHook) ([]any, Stats, error) {
	if err := validateAdvice(g, advice); err != nil {
		return nil, Stats{}, err
	}
	g, advice = cfg.applyFault(g, advice)
	n := g.N()
	workers := cfg.normalize(n)

	pt := newPortTable(g)
	engine := "scheduler"
	var account func(round int, cur, next []Message) (int64, int64)
	if hk != nil {
		engine = hk.engine
		account = hk.init(g, pt)
	}
	machines := newMachines(g, protocol, advice)
	cur := make([]Message, pt.slots())
	next := make([]Message, pt.slots())
	done := make([]bool, n)
	doneAt := make([]int, n)
	outputs := make([]any, n)
	var msgCount atomic.Int64

	// Metrics: when a collector is installed, each shard additionally
	// counts active nodes and payload bytes, and each worker times its
	// sweep; the round loop aggregates and records one RoundMetric per
	// round. Messages, bytes and active counts are per-shard sums of
	// order-independent integers, so they are bit-identical for every
	// worker count. With no collector every extra branch below is a single
	// predictable bool test and no allocation happens.
	m := cfg.collector()
	measure := m.Enabled()
	var runID int
	if measure {
		runID = m.BeginRun(engine, n)
	}

	// sweepStats carries one shard's per-round aggregates back to the
	// round loop.
	type sweepStats struct {
		sent    int64
		bytes   int64
		active  int
		allDone bool
	}

	// sweep advances every node in [lo, hi) by one round — one contiguous
	// index shard: read each inbox from cur, step the machine, deliver the
	// outbox into next.
	sweep := func(lo, hi, round int, cur, next []Message) sweepStats {
		st := sweepStats{allDone: true}
		for v := lo; v < hi; v++ {
			start, end := pt.off[v], pt.off[v+1]
			var outbox []Message
			if !done[v] && cfg.Fault.Crashes(v, round) {
				// The node stops participating: it is marked done (so the
				// run terminates) with a CrashError output, and from this
				// round on all its ports carry nil.
				done[v] = true
				doneAt[v] = round
				outputs[v] = fault.CrashError{Node: v, Round: round}
				if measure {
					m.Emit("fault.crash", "", 1)
				}
			}
			if !done[v] {
				st.active++
				// The inbox slice aliases the slab and is valid only for
				// the duration of the call (same contract as the
				// sequential engine, which reuses a per-node buffer).
				outbox, done[v] = machines[v].Round(round, cur[start:end])
				if done[v] {
					doneAt[v] = round
					outputs[v] = machines[v].Output()
				}
			}
			if !done[v] {
				st.allDone = false
			}
			// Every port is written every round — nil from terminated or
			// silent nodes — so next never needs clearing between rounds.
			deg := int(end - start)
			for i := 0; i < deg; i++ {
				var msg Message
				if i < len(outbox) {
					msg = outbox[i]
				}
				if msg != nil {
					st.sent++
					if measure {
						st.bytes += obs.ApproxSize(msg)
					}
				}
				next[pt.sendSlot[start+int32(i)]] = msg
			}
		}
		if st.sent > 0 {
			msgCount.Add(st.sent)
		}
		return st
	}

	shard := 0
	var hookMsgs int64
	var shardStats []sweepStats
	var shardNanos []int64
	if workers > 1 {
		shard = (n + workers - 1) / workers
		shardStats = make([]sweepStats, workers)
	}
	if measure && workers > 1 {
		shardNanos = make([]int64, workers)
	}
	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, Stats{}, fmt.Errorf("local: scheduler exceeded %d rounds", maxRounds)
		}
		var roundStart time.Time
		if measure {
			roundStart = time.Now()
		}
		var total sweepStats
		if workers <= 1 {
			total = sweep(0, n, round, cur, next)
		} else {
			var (
				wg        sync.WaitGroup
				panicOnce sync.Once
				panicked  any
			)
			for w := 0; w < workers; w++ {
				lo := w * shard
				hi := min(lo+shard, n)
				if lo >= hi {
					shardStats[w] = sweepStats{allDone: true}
					continue
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					// A panicking node program is recovered here and
					// re-raised on the caller's goroutine after the round
					// barrier, as RunBall does, so a caller's recover sees it
					// at any worker count.
					defer func() {
						if p := recover(); p != nil {
							panicOnce.Do(func() { panicked = p })
						}
					}()
					if measure {
						shardStart := time.Now()
						shardStats[w] = sweep(lo, hi, round, cur, next)
						shardNanos[w] = time.Since(shardStart).Nanoseconds()
					} else {
						shardStats[w] = sweep(lo, hi, round, cur, next)
					}
				}(w, lo, hi)
			}
			wg.Wait()
			if panicked != nil {
				panic(panicked)
			}
			total = sweepStats{allDone: true}
			for _, st := range shardStats {
				total.sent += st.sent
				total.bytes += st.bytes
				total.active += st.active
				total.allDone = total.allDone && st.allDone
			}
		}
		// The accounting hook runs single-threaded between the sweep
		// barrier and the slab swap — whether or not metrics are on,
		// because its totals feed Stats.Messages.
		var hkSent, hkBytes int64
		if account != nil {
			hkSent, hkBytes = account(round, cur, next)
			hookMsgs += hkSent
		}
		if measure {
			rm := obs.RoundMetric{Engine: engine, Run: runID, Round: round,
				ActiveNodes: total.active, Messages: total.sent, Bytes: total.bytes,
				WallNanos: time.Since(roundStart).Nanoseconds()}
			if account != nil {
				// Transport vs logical split: Messages/Bytes are what the
				// skeleton actually carried, the protocol's own traffic
				// moves to the Logical* fields.
				rm.Messages, rm.Bytes = hkSent, hkBytes
				rm.LogicalMessages, rm.LogicalBytes = total.sent, total.bytes
			}
			if shardNanos != nil {
				rm.ShardNanos = append([]int64(nil), shardNanos...)
			}
			m.RecordRound(rm)
		}
		cur, next = next, cur
		if total.allDone {
			break
		}
	}

	rounds := 0
	for _, r := range doneAt {
		if r > rounds {
			rounds = r
		}
	}
	messages := int(msgCount.Load())
	if hk != nil {
		messages = int(hookMsgs)
	}
	return outputs, Stats{Rounds: rounds, Messages: messages}, nil
}
