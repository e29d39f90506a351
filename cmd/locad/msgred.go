package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"localadvice/internal/graph"
	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// msgredReport is the machine-readable comparison scripts/bench.sh embeds
// as the "msgred" section and the bench-regression gate enforces.
type msgredReport struct {
	Graph            string  `json:"graph"`
	Nodes            int     `json:"nodes"`
	EdgesM           int     `json:"edges"`
	Rho              int     `json:"rho"`
	FloodRounds      int     `json:"flood_rounds"`
	StockRounds      int     `json:"stock_rounds"`
	StockMessages    int64   `json:"stock_messages"`
	StockBytes       int64   `json:"stock_bytes"`
	FrugalRounds     int     `json:"frugal_rounds"`
	FrugalMessages   int64   `json:"frugal_messages"`
	FrugalBytes      int64   `json:"frugal_bytes"`
	SkeletonEdges    int     `json:"skeleton_edges"`
	Clusters         int     `json:"clusters"`
	MessageReduction float64 `json:"message_reduction"`
	ByteReduction    float64 `json:"byte_reduction"`
	RoundOverhead    float64 `json:"round_overhead"`
	OutputsMatch     bool    `json:"outputs_match"`
}

// cmdMsgred runs the canonical flood workload through the stock scheduler
// and the frugal engine on the same graph and reports the message/byte
// reduction and round overhead. The flood source is the minimum-ID node,
// the horizon its eccentricity plus two — long enough that every node is
// informed and the flood saturates, the regime the skeleton simulation is
// built for.
func cmdMsgred(args []string) error {
	fs := flag.NewFlagSet("msgred", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	rho := fs.Int("rho", local.DefaultFrugalRadius, "skeleton cluster radius ρ (must be positive)")
	jsonOut := fs.Bool("json", false, "emit the comparison as JSON")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := applyWorkers(*workers)
	// The engine treats 0 as "use the default", but at the CLI an explicit
	// -rho 0 is almost certainly a typo for a real radius — the flag default
	// already names the engine default, so any non-positive value is an
	// error here.
	if *rho <= 0 {
		return fmt.Errorf("%w: -rho %d must be positive (default ρ=%d)",
			local.ErrFrugalRadius, *rho, local.DefaultFrugalRadius)
	}
	g, err := makeGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}

	src, minID := 0, int64(0)
	if g.N() == 0 {
		return fmt.Errorf("msgred needs a non-empty graph")
	}
	minID = g.ID(0)
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
	p := &local.FloodProtocol{SourceID: minID, Rounds: ecc + 2}

	var stockC, frugalC obs.Collector
	stockOut, stockStats, err := local.Run(g, p, nil, local.RunConfig{Workers: w, Metrics: &stockC})
	if err != nil {
		return fmt.Errorf("stock engine: %w", err)
	}
	frugalOut, frugalStats, err := local.RunFrugal(g, p, nil, local.RunConfig{Workers: w, FrugalRadius: *rho, Metrics: &frugalC})
	if err != nil {
		return fmt.Errorf("frugal engine: %w", err)
	}

	match := len(stockOut) == len(frugalOut)
	if match {
		for v := range stockOut {
			if stockOut[v] != frugalOut[v] {
				match = false
				break
			}
		}
	}

	sk := graph.BuildSkeleton(g, *rho, s)
	stockSum, frugalSum := stockC.Summary(), frugalC.Summary()

	rep := msgredReport{
		Graph:          *kind,
		Nodes:          g.N(),
		EdgesM:         g.M(),
		Rho:            *rho,
		FloodRounds:    p.Rounds,
		StockRounds:    stockStats.Rounds,
		StockMessages:  int64(stockStats.Messages),
		StockBytes:     stockSum.Bytes,
		FrugalRounds:   frugalStats.Rounds,
		FrugalMessages: int64(frugalStats.Messages),
		FrugalBytes:    frugalSum.Bytes,
		SkeletonEdges:  sk.Edges(),
		Clusters:       len(sk.Centers),
		OutputsMatch:   match,
	}
	if rep.FrugalMessages > 0 {
		rep.MessageReduction = float64(rep.StockMessages) / float64(rep.FrugalMessages)
	}
	if rep.FrugalBytes > 0 {
		rep.ByteReduction = float64(rep.StockBytes) / float64(rep.FrugalBytes)
	}
	if rep.StockRounds > 0 {
		rep.RoundOverhead = float64(rep.FrugalRounds) / float64(rep.StockRounds)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("%s flood source id=%d horizon=%d rounds\n", g, minID, p.Rounds)
		fmt.Printf("  stock : rounds %4d  messages %12d  bytes %12d\n", rep.StockRounds, rep.StockMessages, rep.StockBytes)
		fmt.Printf("  frugal: rounds %4d  messages %12d  bytes %12d   (ρ=%d, %d clusters, %d skeleton edges)\n",
			rep.FrugalRounds, rep.FrugalMessages, rep.FrugalBytes, rep.Rho, rep.Clusters, rep.SkeletonEdges)
		fmt.Printf("  reduction: %.1fx messages, %.1fx bytes at %.2fx rounds; outputs match: %v\n",
			rep.MessageReduction, rep.ByteReduction, rep.RoundOverhead, rep.OutputsMatch)
	}
	if !match {
		return fmt.Errorf("msgred: engine outputs diverged")
	}
	return nil
}
