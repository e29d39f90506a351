package harness

import (
	"testing"

	"localadvice/internal/local"
	"localadvice/internal/obs"
)

// TestBallViewNodesPerView pins how much of its view each batch decoder
// reads: the mean number of nodes a lazy RunBall view stamps
// (ball.view_nodes over ball.views) when the decoder runs at one worker on
// Moser–Tardos advice. The count depends on the decoder and the advice, not
// on host speed. A view materialized in full holds 49 nodes of cycle-1024
// and 911 of torus-1024 at the 3-coloring's radius, and 55 of cycle-1024 at
// the orientation's; each bound sits below the full ball, so a decoder that
// went back to reading its whole view fails it.
func TestBallViewNodesPerView(t *testing.T) {
	for _, c := range []struct {
		schema, family string
		max            float64
	}{
		{"color3", "cycle", 5},
		{"color3", "torus", 12},
		{"orient", "cycle", 54},
	} {
		ds, ok := DetSchemaByName(c.schema)
		if !ok {
			t.Fatalf("no schema %q", c.schema)
		}
		g, err := BuildGraph(c.family, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := ds.EncodeWith(MethodMT, g, 1, nil)
		if err != nil {
			t.Fatalf("%s on %s-1024: %v", c.schema, c.family, err)
		}
		col := &obs.Collector{}
		if _, _, err := ds.DecodeOn("ball", g, advice, local.RunConfig{Workers: 1, Metrics: col}); err != nil {
			t.Fatalf("%s on %s-1024: %v", c.schema, c.family, err)
		}
		var views, nodes int64
		for _, e := range col.Events() {
			switch e.Kind {
			case "ball.views":
				views += e.Value
			case "ball.view_nodes":
				nodes += e.Value
			}
		}
		if views != int64(g.N()) {
			t.Fatalf("%s on %s-1024: %d views, want %d", c.schema, c.family, views, g.N())
		}
		mean := float64(nodes) / float64(views)
		t.Logf("%s on %s-1024: %.2f nodes per view", c.schema, c.family, mean)
		if nodes < views {
			t.Errorf("%s on %s-1024: %d view nodes over %d views; every view stamps at least its center", c.schema, c.family, nodes, views)
		}
		if mean > c.max {
			t.Errorf("%s on %s-1024: views stamp %.2f nodes on average, want at most %.0f", c.schema, c.family, mean, c.max)
		}
	}
}
