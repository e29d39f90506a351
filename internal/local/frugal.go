package local

import (
	"reflect"

	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// This file implements the bandwidth-frugal engine: the one engine that
// optimizes *messages* rather than rounds or wall time.
//
// Following Bitton–Emek–Izumi–Kutten ("Message Reduction in the LOCAL Model
// is a Free Lunch"), any LOCAL protocol can be simulated on a sparse
// skeleton — a ρ-dominating set of cluster centers, BFS trees of depth <= ρ
// inside each cluster, and one representative edge per adjacent cluster
// pair — so that each round's traffic is aggregated at centers and forwarded
// along skeleton edges only. The skeleton has o(m) edges on dense graphs,
// and each simulated round costs a constant 2ρ+1 real rounds of pipelined
// forwarding.
//
// The engine runs the EXACT stock sharded scheduler (runSchedulerCore) so
// that outputs, fault semantics and termination are bit-identical to the
// other engines at every worker count, and accounts the skeleton
// transport in a post-sweep hook:
//
//   - Change suppression ("silence means unchanged"): a directed edge only
//     contributes traffic in rounds where its payload differs from the
//     previous round's. A receiver that hears nothing re-uses the last
//     payload — the standard trick that makes flooding-style protocols
//     nearly free after the wavefront passes.
//   - Aggregation: changed payloads ride up the sender's cluster tree to
//     its center, across the single representative edge if the receiver is
//     in another cluster, and down the receiver's tree. Each skeleton edge
//     carries at most one aggregated bundle per direction per round, so
//     per-round transport messages are bounded by 2·(TreeEdges+CrossEdges)
//     regardless of how many protocol messages changed.
//   - Bytes are not aggregated away: every changed payload is charged
//     obs.ApproxSize times the number of skeleton hops it travels, so byte
//     totals reflect real bandwidth, not just envelope counts.

// DefaultFrugalRadius is the skeleton cluster radius ρ of every RunFrugal
// run. ρ=2 keeps the round overhead at 2ρ+1 = 5 while already collapsing
// grid/torus neighborhoods into few clusters.
const DefaultFrugalRadius = 2

// RunFrugal executes protocol on g with the given advice using the
// bandwidth-frugal engine. Outputs are bit-identical to Run and
// RunSequential; Stats.Messages is the skeleton transport total (typically
// far below the stock engines'), and Stats.Rounds includes the 2ρ+1
// pipelined forwarding overhead (ρ = DefaultFrugalRadius). cfg carries the
// worker count, fault plan and metrics collector. Fault plans behave
// exactly as in Run — the same sweep
// executes, so crash rounds, advice flips and ID reassignment produce
// identical outputs and typed errors.
//
// When a metrics collector is installed, each RoundMetric reports the
// skeleton transport in Messages/Bytes and the simulated protocol's own
// traffic in LogicalMessages/LogicalBytes; the ratio of the two is the
// engine's measured message reduction.
func RunFrugal(g *graph.Graph, protocol Protocol, advice Advice, cfg RunConfig) ([]any, Stats, error) {
	hk := &schedHook{
		engine: "frugal",
		init: func(g *graph.Graph, pt portTable) func(int, []Message, []Message) (int64, int64) {
			return newFrugalAccountant(g, DefaultFrugalRadius, pt).account
		},
	}
	outputs, st, err := runSchedulerCore(g, protocol, advice, cfg, hk)
	if err != nil {
		return outputs, st, err
	}
	if st.Rounds > 0 {
		// Each simulated round is pipelined over 2ρ+1 real rounds of
		// skeleton forwarding; with pipelining the whole run pays the
		// overhead once, as latency.
		st.Rounds += 2*DefaultFrugalRadius + 1
	}
	return outputs, st, nil
}

// frugalAccountant charges each round's changed payloads to skeleton edges.
// It is invoked single-threaded between the sweep barrier and the slab
// swap, so it may keep plain (unsynchronized) per-round stamp state.
type frugalAccountant struct {
	sk  *graph.Skeleton
	csr *graph.CSR
	pt  portTable
	// upStamp[x] == round means the tree edge x→Parent[x] already carries
	// an upward bundle this round; downStamp is the downward direction.
	// cross[cu<<32|cv] == round means the representative edge from cluster
	// cu to cluster cv already carries a bundle this round. Rounds start at
	// 1, so the zero value means "never charged".
	upStamp   []int32
	downStamp []int32
	cross     map[int64]int32
}

func newFrugalAccountant(g *graph.Graph, rho int, pt portTable) *frugalAccountant {
	n := g.N()
	return &frugalAccountant{
		sk:        graph.BuildSkeleton(g, rho, nil),
		csr:       g.Snapshot(),
		pt:        pt,
		upStamp:   make([]int32, n),
		downStamp: make([]int32, n),
		cross:     make(map[int64]int32),
	}
}

// account inspects one round's slabs (cur = previous round's sends, next =
// this round's) and returns the skeleton transport the round cost. Slot
// pt.off[v]+i holds the payload from v's i-th neighbor, so iterating
// receivers and ports visits every directed edge exactly once.
func (a *frugalAccountant) account(round int, cur, next []Message) (msgs, bytes int64) {
	stamp := int32(round)
	n := len(a.pt.off) - 1
	for v := 0; v < n; v++ {
		start := a.pt.off[v]
		for i, u := range a.csr.Neighbors(v) {
			s := start + int32(i)
			if msgEqual(cur[s], next[s]) {
				continue // suppressed: silence means unchanged
			}
			// The payload from sender u to receiver v changed: it rides
			// u's tree up to its center, across the representative edge if
			// the clusters differ, and down v's tree. Tree and cross edges
			// are stamped so each carries one aggregated bundle per
			// direction per round.
			msgs += a.chargeUp(int(u), stamp)
			msgs += a.chargeDown(v, stamp)
			hops := int64(a.sk.Depth[u]) + int64(a.sk.Depth[v])
			if cu, cv := a.sk.Cluster[u], a.sk.Cluster[v]; cu != cv {
				hops++
				key := int64(cu)<<32 | int64(cv)
				if a.cross[key] != stamp {
					a.cross[key] = stamp
					msgs++
				}
			}
			bytes += obs.ApproxSize(next[s]) * hops
		}
	}
	return msgs, bytes
}

// chargeUp charges the unstamped prefix of u's upward tree path. Once a
// node's up edge is stamped, everything above it was stamped by the same
// earlier walk, so the loop can stop at the first stamped node.
func (a *frugalAccountant) chargeUp(u int, stamp int32) (m int64) {
	for x := u; a.sk.Parent[x] >= 0; x = int(a.sk.Parent[x]) {
		if a.upStamp[x] == stamp {
			break
		}
		a.upStamp[x] = stamp
		m++
	}
	return m
}

// chargeDown is chargeUp for the downward direction (center toward v); the
// same stop-at-first-stamped argument applies top-down.
func (a *frugalAccountant) chargeDown(v int, stamp int32) (m int64) {
	for x := v; a.sk.Parent[x] >= 0; x = int(a.sk.Parent[x]) {
		if a.downStamp[x] == stamp {
			break
		}
		a.downStamp[x] = stamp
		m++
	}
	return m
}

// msgEqual reports whether two payloads are equal for change-suppression
// purposes: comparable values via ==, everything else via DeepEqual. A
// false negative only costs accuracy of the reduction (a payload is charged
// that could have been suppressed), never correctness — the protocol's real
// delivery goes through the slabs unchanged.
func msgEqual(a, b Message) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) {
		return false
	}
	if ta.Comparable() {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// FloodProtocol is the canonical workload where message frugality pays:
// the node with ID SourceID floods a constant token, every informed node
// re-broadcasts it each round, and all nodes run to a fixed horizon of
// Rounds rounds (the horizon must be at least the source's eccentricity
// for every node to be informed). Output is the node's informed flag.
//
// On the stock engines every informed node pays its degree in messages
// every round — Θ(m) per round once the flood saturates. Under the frugal
// engine the payload on an edge only changes the round its sender becomes
// informed, so change suppression reduces the traffic to the wavefront:
// each directed edge is charged O(ρ) skeleton hops once, total O(n·ρ)
// instead of Θ(m·Rounds). This is experiment E10's workload, and
// TestFrugalFloodReduction pins its counts on the 64×64 grid.
type FloodProtocol struct {
	SourceID int64
	Rounds   int
}

// NewMachine implements Protocol.
func (p *FloodProtocol) NewMachine(info NodeInfo) Machine {
	return &floodMachine{
		horizon:  p.Rounds,
		deg:      info.Degree,
		informed: info.ID == p.SourceID,
	}
}

type floodMachine struct {
	horizon  int
	deg      int
	informed bool
	outbox   []Message
}

// Round implements Machine: become informed on any non-nil token, broadcast
// the constant token on every port while informed, terminate at the
// horizon. The outbox returned in the terminating round is still delivered
// (the engines' shared contract), but the payload never varies, so the run
// is change-free after the wavefront passes.
func (fm *floodMachine) Round(round int, inbox []Message) ([]Message, bool) {
	if !fm.informed {
		for _, msg := range inbox {
			if msg != nil {
				fm.informed = true
				break
			}
		}
	}
	done := round >= fm.horizon
	if !fm.informed {
		return nil, done
	}
	if fm.outbox == nil {
		fm.outbox = make([]Message, fm.deg)
		for i := range fm.outbox {
			fm.outbox[i] = 1
		}
	}
	return fm.outbox, done
}

// Output implements Machine.
func (fm *floodMachine) Output() any { return fm.informed }
