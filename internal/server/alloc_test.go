package server

import (
	"math/rand"
	"net/http"
	"testing"

	"localadvice/internal/harness"
)

// TestBatchAllocsPerItemNode bounds the allocations of the whole /v1/batch
// decode path: one 16-item, cache-off, extended frame on cycle-1024 posted
// through ServeHTTP, each item with its own advice (greedy MIS in distinct
// random orders for mis, Moser–Tardos under distinct seeds for the LLL
// schemas). Every item decodes, verifies and renders cold, so the count per
// item per node covers frame parsing, advice decoding, the decoder (the
// compiled table for mis, the ball engine for the LLL schemas), lcl.Verify
// and the response. A failure prints the counts of fmt-rendered table keys
// and allocated trail walks.
func TestBatchAllocsPerItemNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	const items = 16
	spec := GraphSpec{Family: "cycle", N: 1024, Seed: 1}
	g, err := harness.BuildGraph(spec.Family, spec.N, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	for _, c := range []struct {
		schema string
		bound  float64
		parent float64
	}{
		{"mis", 5, 29.28},
		{"orientlll", 3, 14.63},
		{"color3lll", 2.5, 2.27},
	} {
		batch := make([]BatchItem, items)
		for j := range batch {
			if c.schema == "mis" {
				batch[j].Advice = greedyMIS(g, rand.New(rand.NewSource(int64(j))).Perm(g.N()))
				continue
			}
			if batch[j].Advice, err = s.schemas[c.schema].EncodeSeeded(g, int64(j)); err != nil {
				t.Fatalf("%s advice %d: %v", c.schema, j, err)
			}
		}
		frame, err := EncodeBatchRequestExt(c.schema, spec, false, batch)
		if err != nil {
			t.Fatal(err)
		}
		post := func() {
			w := doBin(t, s, "/v1/batch", frame)
			if w.Code != http.StatusOK {
				t.Fatalf("%s frame: HTTP %d: %s", c.schema, w.Code, w.Body)
			}
			_, results, err := DecodeBatchResponseExt(w.Body.Bytes())
			if err != nil {
				t.Fatalf("%s frame: %v", c.schema, err)
			}
			for k, res := range results {
				if res.Err != nil {
					t.Fatalf("%s item %d: %s", c.schema, k, res.Err.Msg)
				}
			}
		}
		post()
		perFrame := testing.AllocsPerRun(3, post)
		perItemNode := perFrame / float64(items*g.N())
		t.Logf("%s: %.0f allocations per frame, %.2f per item per node", c.schema, perFrame, perItemNode)
		if perItemNode > c.bound {
			t.Errorf("%s: %.2f allocations per item per node, want at most %.1f (fmt table keys and allocated trail walks: %.2f)",
				c.schema, perItemNode, c.bound, c.parent)
		}
	}
}
