package local

import (
	"errors"
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

// TestFrugalFloodReduction is the headline property on a mid-size grid: the
// frugal engine completes the flood with a fraction of the stock scheduler's
// messages and bytes, within 2× the rounds, and identical outputs. (The
// full-size 4096-node claim lives in the msgred bench section and E10.)
func TestFrugalFloodReduction(t *testing.T) {
	g := graph.Grid2D(24, 24)
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
}

// TestFrugalRadiusTradeoff pins the FrugalRadius knob: a larger ρ costs more
// round overhead, and any ρ preserves outputs.
func TestFrugalRadiusTradeoff(t *testing.T) {
	g := graph.Grid2D(12, 12)
	p := floodSetup(t, g)
	refOut, refStats, err := Run(g, p, nil, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []int{1, 2, 4} {
		out, stats, err := RunFrugal(g, p, nil, RunConfig{FrugalRadius: rho})
		if err != nil {
			t.Fatalf("ρ=%d: %v", rho, err)
		}
		if want := refStats.Rounds + 2*rho + 1; stats.Rounds != want {
			t.Errorf("ρ=%d: rounds %d, want %d", rho, stats.Rounds, want)
		}
		for v := range out {
			if out[v] != refOut[v] {
				t.Fatalf("ρ=%d node %d: output %v, stock %v", rho, v, out[v], refOut[v])
			}
		}
	}
}

// TestFrugalRadiusValidation is the engine-boundary table of the skeleton
// radius: a negative ρ is a typed error, zero selects the documented default, and
// explicit positive radii shift the round overhead by exactly 2ρ+1.
func TestFrugalRadiusValidation(t *testing.T) {
	g := graph.Cycle(16)
	protocol := func() Protocol { return &GatherProtocol{Radius: 2, Decide: viewFingerprint} }
	_, refStats, err := RunSequential(g, protocol(), nil, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rho        int
		wantErr    bool
		wantRounds int
	}{
		{rho: -1, wantErr: true},
		{rho: 0, wantRounds: refStats.Rounds + 2*DefaultFrugalRadius + 1},
		{rho: 1, wantRounds: refStats.Rounds + 3},
		{rho: 4, wantRounds: refStats.Rounds + 9},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("rho=%d", tc.rho), func(t *testing.T) {
			_, stats, err := RunFrugal(g, protocol(), nil, RunConfig{FrugalRadius: tc.rho})
			if tc.wantErr {
				if !errors.Is(err, ErrFrugalRadius) {
					t.Fatalf("err = %v, want ErrFrugalRadius", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if stats.Rounds != tc.wantRounds {
				t.Fatalf("rounds = %d, want %d (protocol rounds %d + 2ρ+1)",
					stats.Rounds, tc.wantRounds, refStats.Rounds)
			}
		})
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
