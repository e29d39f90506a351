// Package local simulates the LOCAL model of distributed computing used
// throughout the paper: an n-node graph whose nodes carry unique IDs from
// {1, ..., poly(n)}, synchronous rounds, unbounded message sizes, and
// unbounded local computation. The runtime of an algorithm is the number of
// rounds until every node has produced its output.
//
// Two execution models are provided, with one error-returning entry point
// per engine, each taking a RunConfig (worker count, fault plan, metrics).
//
// The message engines execute per-round state machines. Run is a sharded
// synchronous-round scheduler: double-buffered per-port inbox slabs indexed
// by a CSR port table, swept shard-by-shard by a worker pool each round
// (see scheduler.go). LOCAL-model cost is rounds, not messages, so
// replacing physical message passing with shared-memory delivery is free.
// RunSequential is an independently written single-threaded round loop —
// the oracle the equivalence property tests pin the scheduler against —
// and RunFrugal runs the scheduler's sweep while accounting the traffic of
// a sparse spanner skeleton (see frugal.go).
//
// The ball engine (RunBall) exploits the standard equivalence "a T-round
// LOCAL algorithm is a function of the radius-T view": it hands every node
// its radius-T view (topology, IDs, degrees, advice), read from the host
// graph and grown only as far as the algorithm reads it, and records T as
// the round count. All advice-schema decoders in this codebase are written
// against views.
//
// RunDecider dispatches a view-decide function to any of the four engines
// by name (EngineNames), and the engine-equivalence tests in this package
// check that all four produce identical outputs on reference protocols.
package local

import (
	"fmt"

	"localadvice/internal/bitstr"
)

// Advice assigns a bit string to every node (by node index). A nil Advice
// means "no advice"; missing entries read as empty strings.
type Advice []bitstr.String

// TotalBits returns the total number of advice bits over all nodes.
func (a Advice) TotalBits() int {
	total := 0
	for _, s := range a {
		total += s.Len()
	}
	return total
}

// MaxBits returns the largest per-node advice length (the β of Definition 2).
func (a Advice) MaxBits() int {
	m := 0
	for _, s := range a {
		if s.Len() > m {
			m = s.Len()
		}
	}
	return m
}

// OnesRatio returns n1/(n0+n1) for a 1-bit-per-node advice assignment (the
// sparsity measure of Definition 3). It returns an error unless every node
// holds exactly one bit.
func (a Advice) OnesRatio() (float64, error) {
	if len(a) == 0 {
		return 0, fmt.Errorf("local: empty advice")
	}
	ones := 0
	for v, s := range a {
		if s.Len() != 1 {
			return 0, fmt.Errorf("local: node %d holds %d bits, want exactly 1", v, s.Len())
		}
		ones += s.Ones()
	}
	return float64(ones) / float64(len(a)), nil
}

// BitHolders returns the indices of nodes with non-empty advice.
func (a Advice) BitHolders() []int {
	var out []int
	for v, s := range a {
		if s.Len() > 0 {
			out = append(out, v)
		}
	}
	return out
}

// Message is an arbitrary payload exchanged along an edge in one round.
// LOCAL places no bound on message size.
type Message any

// NodeInfo is the initial knowledge of a node in the LOCAL model: its own
// ID, degree, the global maximum degree Δ, and its advice string. Ports
// 0..Degree-1 address the incident edges; port order is the graph's
// adjacency order, but the node does not learn neighbor identities until
// messages arrive.
type NodeInfo struct {
	ID     int64
	Degree int
	Delta  int
	Advice bitstr.String
}

// Machine is a per-node state machine for the message engine. Round is
// called once per round, starting at round 1, with inbox[i] holding the
// message received on port i (nil in round 1 and on ports whose neighbor
// sent nothing). The inbox slice is only valid for the duration of the
// call. It returns one outgoing message per port (the slice may be nil or
// contain nils) and done=true once the node has fixed its output. After
// done, the node keeps forwarding nil messages.
type Machine interface {
	Round(round int, inbox []Message) (outbox []Message, done bool)
	Output() any
}

// Protocol creates the per-node machines of a distributed algorithm.
type Protocol interface {
	NewMachine(info NodeInfo) Machine
}

// Stats reports the cost of an execution.
type Stats struct {
	Rounds   int // rounds until every node terminated
	Messages int // total non-nil messages delivered
}

// maxRounds caps executions so that a buggy protocol fails fast instead of
// hanging the test suite.
const maxRounds = 1 << 20
