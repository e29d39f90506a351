package server

import (
	"fmt"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/eth"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// schemaEntry is one servable advice schema. The four fault-experiment
// schemas are reused verbatim from the harness; "mis" additionally goes
// through the Section 8 route — its order-invariant 0-round decoder is
// compiled into an eth.Table that the cache retains, so repeat decodes run
// off the finite lookup table instead of re-deriving anything.
type schemaEntry struct {
	// Name is the request-facing schema identifier.
	Name string
	// Params fingerprints the schema's fixed parameters; it is part of the
	// cache-key contract (DESIGN.md): two entries with the same Name but
	// different Params never share cached artifacts.
	Params string
	// Problem is the LCL the decoded output is verified against.
	Problem func(g *graph.Graph) lcl.Problem
	// Encode computes the prover's advice. Nil when EncodeSeeded is set.
	Encode func(g *graph.Graph) (local.Advice, error)
	// EncodeSeeded computes seed-dependent advice (the Moser–Tardos LLL
	// path): the output is a function of (graph, seed), so the graph digest
	// alone does not determine it. Entries setting it must set SeedDependent.
	EncodeSeeded func(g *graph.Graph, seed int64) (local.Advice, error)
	// SeedDependent widens the advice cache key with the request's graph
	// seed (":seed=N"). Deterministic-LLL schemas leave it false — their
	// advice is a pure function of the graph, so requests under rotating
	// seeds share one cached artifact (DESIGN.md decision 12); that delta
	// in warm hit rate is what the "detlll" bench section measures.
	SeedDependent bool
	// Decode runs the LOCAL decoder (nil when Compile is set).
	Decode func(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error)
	// Compile materializes the decoder as an eth.Table; decode requests then
	// run through Table.Run. Only order-invariant decoders can offer this.
	Compile func(g *graph.Graph, advice local.Advice) (*eth.Table, error)
	// ValidateAdvice rejects advice whose shape the decoder cannot process
	// (reported as corrupt, HTTP 422). May be nil.
	ValidateAdvice func(g *graph.Graph, advice local.Advice) error
	// TableEncode/TableDecode are the binary output codecs used when a
	// compiled table is persisted to the artifact store (nil = the schema's
	// tables are never written to disk). They must be a bit-identical pair:
	// TableDecode(TableEncode(v)) == v, byte for byte on re-encode.
	TableEncode func(v any) ([]byte, error)
	TableDecode func(b []byte) (any, error)
}

// buildSchemas assembles the registry served under /v1/*: the four harness
// fault schemas plus the table-compiled MIS schema of the E2 workload.
func buildSchemas() map[string]*schemaEntry {
	out := make(map[string]*schemaEntry)
	params := map[string]string{
		"orient":     "spacing=default",
		"color3":     "cover=10,spread=2",
		"deltacolor": "gamma=4",
		"growth":     "cluster=40",
	}
	for _, fs := range harness.FaultSchemas() {
		fs := fs
		out[fs.Name] = &schemaEntry{
			Name:    fs.Name,
			Params:  params[fs.Name],
			Problem: fs.Problem,
			Encode:  fs.Encode,
			Decode:  fs.Decode,
		}
	}
	// The deterministic-LLL pipeline serves each LLL-backed schema twice:
	// "<name>lll" places advice by seeded Moser–Tardos (seed-dependent cache
	// keys — every distinct request seed is a distinct artifact) and
	// "<name>det" by conditional expectations (seedless keys — one artifact
	// per graph digest, whatever seeds the requests rotate through).
	for _, ds := range harness.DetSchemas() {
		ds := ds
		out[ds.Name+"lll"] = &schemaEntry{
			Name:          ds.Name + "lll",
			Params:        params[ds.Name] + ",method=mt",
			Problem:       ds.Problem,
			SeedDependent: true,
			EncodeSeeded: func(g *graph.Graph, seed int64) (local.Advice, error) {
				return ds.EncodeWith(harness.MethodMT, g, seed, nil)
			},
			Decode: func(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
				return ds.DecodeOn("ball", g, advice, local.RunConfig{})
			},
		}
		out[ds.Name+"det"] = &schemaEntry{
			Name:    ds.Name + "det",
			Params:  params[ds.Name] + ",method=det",
			Problem: ds.Problem,
			Encode: func(g *graph.Graph) (local.Advice, error) {
				return ds.EncodeWith(harness.MethodDet, g, 0, nil)
			},
			Decode: func(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
				return ds.DecodeOn("ball", g, advice, local.RunConfig{DetLLL: true})
			},
		}
	}
	tableEnc, tableDec := eth.IntBinaryCodec()
	out["mis"] = &schemaEntry{
		Name:           "mis",
		Params:         "radius=0",
		Problem:        func(*graph.Graph) lcl.Problem { return lcl.MIS{} },
		Encode:         misEncode,
		Compile:        misCompile,
		ValidateAdvice: misValidate,
		TableEncode:    tableEnc,
		TableDecode:    tableDec,
	}
	return out
}

// schemaNames returns the sorted registry names (for error messages).
func schemaNames(schemas map[string]*schemaEntry) []string {
	names := make([]string, 0, len(schemas))
	for name := range schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// misEncode computes a greedy maximal independent set in ID order and
// encodes its indicator as 1 bit per node — the advice assignment whose
// existence the E2 brute-force search measures the cost of finding.
func misEncode(g *graph.Graph) (local.Advice, error) {
	order := make([]int, g.N())
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })
	return greedyMIS(g, order), nil
}

// greedyMIS is the indicator, 1 bit per node, of the greedy maximal
// independent set that takes the nodes in the given order.
func greedyMIS(g *graph.Graph, order []int) local.Advice {
	in := make([]bool, g.N())
	blocked := make([]bool, g.N())
	for _, v := range order {
		if blocked[v] {
			continue
		}
		in[v] = true
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	advice := make(local.Advice, g.N())
	for v := range advice {
		bit := 0
		if in[v] {
			bit = 1
		}
		advice[v] = bitstr.New(bit)
	}
	return advice
}

// misValidate enforces the 1-bit-per-node shape the 0-round decoder needs.
func misValidate(g *graph.Graph, advice local.Advice) error {
	for v, s := range advice {
		if s.Len() != 1 {
			return fmt.Errorf("node %d holds %d advice bits, want exactly 1: %w",
				v, s.Len(), fault.ErrDetectedCorruption)
		}
	}
	return nil
}

// misAlgo is the order-invariant 0-round MIS decoder: the advice bit is the
// set-membership indicator (label 1 = in the set, 2 = out).
func misAlgo(view *local.View) any {
	if view.Advice[view.Center].Bit(0) == 1 {
		return 1
	}
	return 2
}

// misCompile materializes misAlgo as a finite lookup table over the views
// of (g, advice); Server.decode caches the table keyed by the graph digest
// and advice digest, so repeat requests skip compilation entirely.
func misCompile(g *graph.Graph, advice local.Advice) (*eth.Table, error) {
	return eth.Compile(misAlgo, 0, []*graph.Graph{g}, []local.Advice{advice})
}
