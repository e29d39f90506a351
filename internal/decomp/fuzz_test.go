package decomp

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"localadvice/internal/graph"
)

// fuzzGraph decodes an arbitrary byte string into a small graph: the first
// byte picks the node count (1..64), subsequent byte pairs are candidate
// edges (self-loops and duplicates skipped), capped at 4n edges so the
// fuzzer cannot build quadratic inputs.
func fuzzGraph(data []byte) *graph.Graph {
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%64
	}
	g := graph.New(n)
	for i := 1; i+1 < len(data) && g.M() < 4*n; i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// FuzzDecompose is the decomposition's crash wall: for every generated
// (graph, beta, seed) triple, DecomposeWorkers either returns a typed
// ErrBeta (exactly when the rate is invalid) or a decomposition that passes
// the full Validate invariant check and matches the sequential result
// bit-for-bit. It must never panic.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{}, 0.25, int64(1))
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0}, 0.5, int64(7))
	f.Add([]byte{40, 1, 2, 3, 4, 5, 6, 9, 9, 200, 13}, 0.05, int64(-3))
	f.Add([]byte{63, 255, 254, 10, 20, 30, 40}, 3.5, int64(42))
	f.Add([]byte{16, 0, 1}, -1.0, int64(0))
	f.Add([]byte{5}, 0.0, int64(5))
	f.Fuzz(func(t *testing.T, data []byte, beta float64, seed int64) {
		g := fuzzGraph(data)
		d, err := DecomposeWorkers(g, beta, seed, 3)
		if err != nil {
			if !errors.Is(err, ErrBeta) {
				t.Fatalf("untyped error: %v", err)
			}
			if beta > 0 && !math.IsInf(beta, 0) && !math.IsNaN(beta) {
				t.Fatalf("valid beta %v rejected: %v", beta, err)
			}
			return
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) || beta <= 0 {
			t.Fatalf("invalid beta %v accepted", beta)
		}
		if err := d.Validate(g); err != nil {
			t.Fatal(err)
		}
		seq, err := Decompose(g, beta, seed)
		if err != nil {
			t.Fatalf("sequential recompute: %v", err)
		}
		if !reflect.DeepEqual(d, seq) {
			t.Fatal("workers=3 decomposition differs from workers=1")
		}
	})
}
