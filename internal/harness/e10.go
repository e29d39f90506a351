package harness

import (
	"fmt"
	"math/rand"

	"localadvice/internal/graph"
	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// e10Graphs returns the graph families of the message-reduction sweep:
// sparse (cycle), bounded-growth (grid, torus — the paper's regime), and an
// unstructured random graph. IDs are permuted so nothing depends on the
// construction order.
func e10Graphs() []struct {
	name string
	g    *graph.Graph
} {
	rng := rand.New(rand.NewSource(10))
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(256)},
		{"grid", graph.Grid2D(16, 16)},
		{"torus", graph.Torus2D(16, 16)},
		{"gnp", graph.RandomGNP(192, 0.045, rng)},
	}
	for _, e := range gs {
		graph.AssignPermutedIDs(e.g, rng)
	}
	return gs
}

// RunE10 measures the frugal engine's skeleton simulation (Bitton–Emek–
// Izumi–Kutten, "Message Reduction in the LOCAL Model is a Free Lunch")
// against the stock scheduler on a saturating flood: every graph family
// runs the same FloodProtocol through both engines, outputs are required to
// be bit-identical, and the table reports total messages and payload bytes
// side by side with the achieved reduction factors and round overhead.
func RunE10() (*Table, error) {
	t := &Table{
		ID: "E10", Title: "Frugal engine: skeleton message reduction vs stock scheduler",
		Header: []string{"family", "n", "m", "rounds", "f.rounds", "messages", "f.messages", "msg.x", "bytes", "f.bytes", "byte.x"},
	}
	scratch := graph.NewBFSScratch()
	for _, e := range e10Graphs() {
		g := e.g
		src, minID := 0, g.ID(0)
		for v := 1; v < g.N(); v++ {
			if id := g.ID(v); id < minID {
				src, minID = v, id
			}
		}
		ecc := 0
		for _, u := range g.BFSWithin(src, -1, scratch) {
			if dd := scratch.Dist(int(u)); dd > ecc {
				ecc = dd
			}
		}
		p := &local.FloodProtocol{SourceID: minID, Rounds: ecc + 2}

		var stockC, frugalC obs.Collector
		stockOut, stockStats, err := local.Run(g, p, nil, local.RunConfig{Workers: 1, Metrics: &stockC})
		if err != nil {
			return nil, fmt.Errorf("E10 %s: stock engine: %w", e.name, err)
		}
		frugalOut, frugalStats, err := local.RunFrugal(g, p, nil, local.RunConfig{Metrics: &frugalC})
		if err != nil {
			return nil, fmt.Errorf("E10 %s: frugal engine: %w", e.name, err)
		}
		for v := range stockOut {
			if stockOut[v] != frugalOut[v] {
				return nil, fmt.Errorf("E10 %s: engines disagree at node %d: %v vs %v",
					e.name, v, stockOut[v], frugalOut[v])
			}
		}

		stockBytes := stockC.Summary().Bytes
		frugalBytes := frugalC.Summary().Bytes
		msgX, byteX := 0.0, 0.0
		if frugalStats.Messages > 0 {
			msgX = float64(stockStats.Messages) / float64(frugalStats.Messages)
		}
		if frugalBytes > 0 {
			byteX = float64(stockBytes) / float64(frugalBytes)
		}
		t.AddRow(e.name, d(g.N()), d(g.M()), d(stockStats.Rounds), d(frugalStats.Rounds),
			d(stockStats.Messages), d(frugalStats.Messages), f2(msgX),
			fmt.Sprint(stockBytes), fmt.Sprint(frugalBytes), f2(byteX))
	}
	t.Notes = append(t.Notes,
		"workload: FloodProtocol from the min-ID node to a fixed horizon of ecc+2 rounds — every informed node re-broadcasts every round, the regime where change suppression on the skeleton pays",
		"outputs are bit-identical between the engines on every family (checked each run); f.rounds = rounds + 2ρ+1 pipelined forwarding overhead at the default ρ=2",
		"messages/bytes are what each engine put on its transport; the frugal engine's logical (simulated) traffic equals the stock engine's exactly",
		"regenerate with: go run ./cmd/locad exp E10")
	return t, nil
}
