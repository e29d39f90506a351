package main

import (
	"fmt"
	"sort"
	"strings"

	"localadvice/internal/bitstr"
	"localadvice/internal/eth"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// This file calls each module's public functions the way the server's
// schema registry does, so the traced run can time every layer in process.

// detSchema splits a served LLL schema name ("orientlll", "color3det") into
// its harness adapter and whether it runs in det mode.
func detSchema(schema string) (harness.DetSchema, bool, bool) {
	for _, suffix := range []string{"lll", "det"} {
		if base, ok := strings.CutSuffix(schema, suffix); ok {
			ds, found := harness.DetSchemaByName(base)
			return ds, suffix == "det", found
		}
	}
	return harness.DetSchema{}, false, false
}

// encodeAdvice runs the prover of a served schema; LLL solver events are
// reported into m. Inline edge-list graphs carry seed 0, which is the
// Moser–Tardos seed the server uses for them.
func encodeAdvice(schema string, g *graph.Graph, m *obs.Collector) (local.Advice, error) {
	if schema == "mis" {
		return misAdvice(g, idOrder(g)), nil
	}
	if ds, det, ok := detSchema(schema); ok {
		if det {
			return ds.EncodeWith(harness.MethodDet, g, 0, m)
		}
		return ds.EncodeWith(harness.MethodMT, g, 0, m)
	}
	if fs, ok := harness.FaultSchemaByName(schema); ok {
		return fs.Encode(g)
	}
	return nil, fmt.Errorf("no encoder for schema %q", schema)
}

// decodeAdvice runs a served schema's decoder; mis goes through a compiled
// eth table like the server's.
func decodeAdvice(schema string, g *graph.Graph, a local.Advice) (*lcl.Solution, local.Stats, error) {
	if schema == "mis" {
		table, err := misCompile(g, a)
		if err != nil {
			return nil, local.Stats{}, err
		}
		return misRun(table, g, a)
	}
	if ds, det, ok := detSchema(schema); ok {
		return ds.DecodeOn("ball", g, a, local.RunConfig{DetLLL: det})
	}
	if fs, ok := harness.FaultSchemaByName(schema); ok {
		return fs.Decode(g, a)
	}
	return nil, local.Stats{}, fmt.Errorf("no decoder for schema %q", schema)
}

// misAlgo is the order-invariant 0-round MIS decoder the server compiles:
// the advice bit is set membership (label 1 = in the set, 2 = out).
func misAlgo(view *local.View) any {
	if view.Advice[view.Center].Bit(0) == 1 {
		return 1
	}
	return 2
}

func misCompile(g *graph.Graph, a local.Advice) (*eth.Table, error) {
	return eth.Compile(misAlgo, 0, []*graph.Graph{g}, []local.Advice{a})
}

func misRun(t *eth.Table, g *graph.Graph, a local.Advice) (*lcl.Solution, local.Stats, error) {
	outputs, st, err := t.Run(g, a)
	if err != nil {
		return nil, st, err
	}
	sol := lcl.NewSolution(g)
	for v, out := range outputs {
		label, ok := out.(int)
		if !ok {
			return nil, st, fmt.Errorf("table output for node %d is %T", v, out)
		}
		sol.Node[v] = label
	}
	return sol, st, nil
}

// misAdvice is the 1-bit indicator of the greedy maximal independent set
// taken in the given node order.
func misAdvice(g *graph.Graph, order []int) local.Advice {
	blocked := make([]bool, g.N())
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(0)
	}
	for _, v := range order {
		if blocked[v] {
			continue
		}
		advice[v] = bitstr.New(1)
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	return advice
}

// idOrder is the server's greedy order: ascending node identifier.
func idOrder(g *graph.Graph) []int {
	order := make([]int, g.N())
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(a, b int) bool { return g.ID(order[a]) < g.ID(order[b]) })
	return order
}

// eventTotal sums one event kind in a collector.
func eventTotal(c *obs.Collector, kind string) int64 {
	var total int64
	for _, e := range c.Events() {
		if e.Kind == kind {
			total += e.Value
		}
	}
	return total
}
