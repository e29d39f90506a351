package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/server"
)

// problemFor returns the LCL a schema's output is verified against, the
// same mapping the server's schema registry uses.
func problemFor(schema string, g *graph.Graph) (lcl.Problem, error) {
	if schema == "mis" {
		return lcl.MIS{}, nil
	}
	if fs, ok := harness.FaultSchemaByName(schema); ok {
		return fs.Problem(g), nil
	}
	for _, suffix := range []string{"lll", "det"} {
		if base, ok := strings.CutSuffix(schema, suffix); ok {
			if ds, ok := harness.DetSchemaByName(base); ok {
				return ds.Problem(g), nil
			}
		}
	}
	return nil, fmt.Errorf("no problem known for schema %q", schema)
}

// verifyLabels checks node (and, when present, edge) labels against the
// schema's problem on the driver's own copy of the graph.
func verifyLabels(schema string, g *graph.Graph, nodes, edges []int) error {
	p, err := problemFor(schema, g)
	if err != nil {
		return err
	}
	if len(nodes) != g.N() {
		return fmt.Errorf("%d node labels for %d nodes", len(nodes), g.N())
	}
	sol := lcl.NewSolution(g)
	copy(sol.Node, nodes)
	if edges != nil {
		if len(edges) != g.M() {
			return fmt.Errorf("%d edge labels for %d edges", len(edges), g.M())
		}
		copy(sol.Edge, edges)
	}
	return lcl.Verify(p, g, sol)
}

// verifyDecodeBody parses a /v1/decode answer and verifies its labels.
func verifyDecodeBody(schema string, g *graph.Graph, body []byte) (*server.DecodeResponse, error) {
	var resp server.DecodeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	if !resp.Verified || resp.Schema != schema || resp.GraphDigest != g.Digest() {
		return nil, fmt.Errorf("decode answer for %s/%s is unverified or for another graph", resp.Schema, resp.GraphDigest)
	}
	return &resp, verifyLabels(schema, g, resp.Labels, resp.EdgeLabels)
}

// stripElapsed cuts the per-request timing field off a JSON answer, which
// is the only part of a cached answer that may differ between requests.
func stripElapsed(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"elapsed_nanos":`)); i >= 0 {
		return body[:i]
	}
	return body
}
