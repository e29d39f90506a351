package local

import (
	"fmt"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// floodSetup builds the canonical frugal workload on g: a FloodProtocol
// sourced at the minimum-ID node with a horizon two past the source's
// eccentricity, so every node is informed with slack.
func floodSetup(t *testing.T, g *graph.Graph) *FloodProtocol {
	t.Helper()
	src, minID := 0, g.ID(0)
	for v := 1; v < g.N(); v++ {
		if id := g.ID(v); id < minID {
			src, minID = v, id
		}
	}
	s := graph.NewBFSScratch()
	ecc := 0
	for _, u := range g.BFSWithin(src, -1, s) {
		if d := s.Dist(int(u)); d > ecc {
			ecc = d
		}
	}
	return &FloodProtocol{SourceID: minID, Rounds: ecc + 2}
}

// floodCounts are the exact costs of the canonical flood on one grid at the
// default skeleton radius: the stock scheduler's rounds, messages and bytes,
// the frugal engine's, and the skeleton's size. They are functions of the
// graph alone, so they hold on any host and at any worker count.
type floodCounts struct {
	stockRounds, frugalRounds     int
	stockMessages, frugalMessages int64
	stockBytes, frugalBytes       int64
	clusters, skeletonEdges       int
}

// TestFrugalFloodReduction is the headline property: the frugal engine
// completes the flood with a fraction of the stock scheduler's messages and
// bytes, within 2× the rounds, and identical outputs. The 64×64 grid is the
// full-size case; E10's golden covers graphs up to 256 nodes. Every count
// is pinned exactly.
func TestFrugalFloodReduction(t *testing.T) {
	cases := []struct {
		side int
		want floodCounts
	}{
		{24, floodCounts{
			stockRounds: 48, stockMessages: 55_200, stockBytes: 441_600,
			frugalRounds: 53, frugalMessages: 2_339, frugalBytes: 43_152,
			clusters: 102, skeletonEdges: 730,
		}},
		{64, floodCounts{
			stockRounds: 128, stockMessages: 1_048_320, stockBytes: 8_386_560,
			frugalRounds: 133, frugalMessages: 17_103, frugalBytes: 319_744,
			clusters: 704, skeletonEdges: 5_382,
		}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("grid%dx%d", tc.side, tc.side), func(t *testing.T) {
			checkFloodReduction(t, graph.Grid2D(tc.side, tc.side), tc.want)
		})
	}
}

func checkFloodReduction(t *testing.T, g *graph.Graph, want floodCounts) {
	p := floodSetup(t, g)

	var stock, frugal obs.Collector
	stockOut, stockStats, err := Run(g, p, nil, RunConfig{Workers: 1, Metrics: &stock})
	if err != nil {
		t.Fatal(err)
	}
	frugalOut, frugalStats, err := RunFrugal(g, p, nil, RunConfig{Metrics: &frugal})
	if err != nil {
		t.Fatal(err)
	}
	for v := range stockOut {
		if stockOut[v] != frugalOut[v] {
			t.Fatalf("node %d: stock %v, frugal %v", v, stockOut[v], frugalOut[v])
		}
		if stockOut[v] != true {
			t.Fatalf("node %d not informed; the horizon is too short for the reduction claim to mean anything", v)
		}
	}

	if frugalStats.Messages*3 > stockStats.Messages {
		t.Errorf("frugal sent %d messages, stock %d — less than the 3× reduction the engine exists for",
			frugalStats.Messages, stockStats.Messages)
	}
	if frugalStats.Rounds > 2*stockStats.Rounds {
		t.Errorf("frugal took %d rounds, stock %d — over the 2× overhead bound", frugalStats.Rounds, stockStats.Rounds)
	}

	// The metric stream must tell the same story: summed transport bytes
	// below the stock engine's, logical traffic equal to it.
	var stockMsgs, stockBytes, transMsgs, transBytes, logicalMsgs, logicalBytes int64
	for _, rm := range stock.Rounds() {
		stockMsgs += rm.Messages
		stockBytes += rm.Bytes
		if rm.LogicalMessages != 0 || rm.LogicalBytes != 0 {
			t.Fatalf("stock engine reported logical traffic: %+v", rm)
		}
	}
	for _, rm := range frugal.Rounds() {
		if rm.Engine != "frugal" {
			t.Fatalf("frugal round metric has engine %q", rm.Engine)
		}
		transMsgs += rm.Messages
		transBytes += rm.Bytes
		logicalMsgs += rm.LogicalMessages
		logicalBytes += rm.LogicalBytes
	}
	if transMsgs != int64(frugalStats.Messages) {
		t.Errorf("metric transport sum %d != Stats.Messages %d", transMsgs, frugalStats.Messages)
	}
	if logicalMsgs != stockMsgs || logicalBytes != stockBytes {
		t.Errorf("frugal logical traffic %d msgs/%d bytes, stock %d/%d — the simulated protocol drifted",
			logicalMsgs, logicalBytes, stockMsgs, stockBytes)
	}
	if transBytes*3 > stockBytes {
		t.Errorf("frugal transport bytes %d vs stock %d — change suppression is not biting", transBytes, stockBytes)
	}

	sk := graph.BuildSkeleton(g, DefaultFrugalRadius, graph.NewBFSScratch())
	got := floodCounts{
		stockRounds: stockStats.Rounds, stockMessages: int64(stockStats.Messages), stockBytes: stockBytes,
		frugalRounds: frugalStats.Rounds, frugalMessages: int64(frugalStats.Messages), frugalBytes: transBytes,
		clusters: len(sk.Centers), skeletonEdges: sk.Edges(),
	}
	if got != want {
		t.Errorf("flood counts on %s:\n got %+v\nwant %+v", g, got, want)
	}
}

// TestFrugalEmptyGraph pins the degenerate case: no nodes, no rounds, no
// overhead (the 2ρ+1 pipeline never starts).
func TestFrugalEmptyGraph(t *testing.T) {
	out, stats, err := RunFrugal(graph.New(0), &FloodProtocol{SourceID: 1, Rounds: 3}, nil, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats != (Stats{}) {
		t.Fatalf("empty graph: out=%v stats=%+v", out, stats)
	}
}

// TestMsgEqual pins the change-suppression comparison across payload kinds.
func TestMsgEqual(t *testing.T) {
	type pair struct{ A, B int }
	cases := []struct {
		name string
		a, b Message
		want bool
	}{
		{"both nil", nil, nil, true},
		{"nil vs value", nil, 0, false},
		{"value vs nil", 0, nil, false},
		{"equal ints", 7, 7, true},
		{"unequal ints", 7, 8, false},
		{"zero int vs nil", 0, nil, false},
		{"different types", int64(7), 7, false},
		{"equal structs", pair{1, 2}, pair{1, 2}, true},
		{"equal slices", []int{1, 2}, []int{1, 2}, true},
		{"unequal slices", []int{1, 2}, []int{1, 3}, false},
		{"slice vs int", []int{1}, 1, false},
	}
	for _, c := range cases {
		if got := msgEqual(c.a, c.b); got != c.want {
			t.Errorf("%s: msgEqual(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}
