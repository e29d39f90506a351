package local_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/coloring"
	"localadvice/internal/core"
	"localadvice/internal/eth"
	"localadvice/internal/graph"
	"localadvice/internal/growth"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/orient"
	"localadvice/internal/server"
)

// viewOracle is RunBall's output hook in TestReusedViewMatchesFreshBuildView:
// it reruns each node's algorithm on BuildView's materialized view of that
// node and records any difference from what the algorithm returned on
// RunBall's lazy, pooled view.
type viewOracle struct {
	mu       sync.Mutex
	checked  int
	failures []string
}

func (o *viewOracle) check(g *graph.Graph, advice local.Advice, v, radius int, algo local.BallAlgorithm, out any) {
	want := algo(local.BuildView(g, advice, v, radius))
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked++
	if !sameOutput(out, want) && len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf("node %d (ID %d) of a %d-node graph at radius %d: lazy view gave %s, BuildView gave %s",
			v, g.ID(v), g.N(), radius, render(out), render(want)))
	}
}

func (o *viewOracle) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checked
}

// sameOutput compares two outputs: errors by their text, anything else by
// value.
func sameOutput(a, b any) bool {
	ea, aErr := a.(error)
	eb, bErr := b.(error)
	if aErr || bErr {
		return aErr && bErr && ea.Error() == eb.Error()
	}
	return reflect.DeepEqual(a, b)
}

func render(out any) string {
	if err, ok := out.(error); ok {
		return fmt.Sprintf("error %q", err.Error())
	}
	return fmt.Sprintf("%T %+v", out, out)
}

// oracleGraph is one input graph of the view oracle.
type oracleGraph struct {
	name string
	g    *graph.Graph
}

// oracleGraphs is the property-graph sweep, each graph under permuted and
// under spread IDs.
func oracleGraphs(t *testing.T, rng *rand.Rand) []oracleGraph {
	gs := local.PropertyGraphs(t, 4)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []oracleGraph
	for _, name := range names {
		out = append(out, oracleGraph{name + "/permuted", gs[name]})
		spread := gs[name].Clone()
		graph.AssignSpreadIDs(spread, rng)
		out = append(out, oracleGraph{name + "/spread", spread})
	}
	return out
}

// randomAdvice gives each node 1 bit, a 1 with probability p.
func randomAdvice(rng *rand.Rand, n int, p float64) local.Advice {
	a := make(local.Advice, n)
	for v := range a {
		bit := 0
		if rng.Float64() < p {
			bit = 1
		}
		a[v] = bitstr.New(bit)
	}
	return a
}

// flipBits returns a copy of advice with the last bit of every k-th
// non-empty string flipped.
func flipBits(advice local.Advice, k int) local.Advice {
	out := make(local.Advice, len(advice))
	copy(out, advice)
	seen := 0
	for v, s := range out {
		if s.Len() == 0 {
			continue
		}
		if seen%k == 0 {
			bits := make([]int, s.Len())
			for i := range bits {
				bits[i] = s.Bit(i)
			}
			bits[len(bits)-1] ^= 1
			out[v] = bitstr.New(bits...)
		}
		seen++
	}
	return out
}

// tamperVar flips bits of a variable-length assignment and drops one
// holder, so decoders meet inconsistent marks and missing ones.
func tamperVar(va core.VarAdvice, n int) core.VarAdvice {
	dense := flipBits(va.Dense(n), 3)
	out := make(core.VarAdvice)
	dropped := false
	for v, s := range dense {
		if s.Len() == 0 {
			continue
		}
		if !dropped {
			dropped = true
			continue
		}
		out[v] = s
	}
	return out
}

// TestReusedViewMatchesFreshBuildView is the view oracle: every production
// ball algorithm, driven through its public entry point, must return on each
// of RunBall's lazy, pooled views exactly what it returns on BuildView's
// materialized view of the same node — the same output, or an error with
// the same text. The algorithms are locad's view-size decider, eth.Compile
// and eth.Table.Run, TwoColoringStage and OneBitCodec at radii 0–3, the
// server's MIS decoder, and at their production radii the orientation,
// 3-coloring, cluster-coloring and growth codec and proof decoders. Inputs
// are the property graphs under permuted and spread IDs, with encoder
// advice where the encoder accepts the graph and tampered or random advice
// everywhere, at 1, 2 and 8 workers.
func TestReusedViewMatchesFreshBuildView(t *testing.T) {
	o := &viewOracle{}
	local.SetRunBallHook(o.check)
	defer local.SetRunBallHook(nil)
	defer local.SetDefaultWorkers(0)
	srv, err := server.New(server.Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(16))
	graphs := oracleGraphs(t, rng)
	for _, workers := range []int{1, 2, 8} {
		local.SetDefaultWorkers(workers)
		for _, in := range graphs {
			g := in.g
			// run calls one entry point; decoding errors are expected on
			// tampered advice, but every call must reach RunBall.
			run := func(what string, call func() error) {
				t.Helper()
				before := o.count()
				err := call()
				if o.count() == before {
					t.Fatalf("%s on %s at %d workers checked no view (%v)", what, in.name, workers, err)
				}
			}
			plain := randomAdvice(rng, g.N(), 0.3)
			for r := 0; r <= 3; r++ {
				run("ViewSize", func() error {
					_, _, err := local.RunBall(g, nil, r, local.ViewSize, local.RunConfig{})
					return err
				})
				var table *eth.Table
				run("eth.Compile", func() (err error) {
					table, err = eth.Compile(local.ViewSize, r, []*graph.Graph{g}, []local.Advice{plain})
					return err
				})
				run("eth.Table.Run", func() error { _, _, err := table.Run(g, flipBits(plain, 5)); return err })
				if r == 0 {
					continue
				}
				two := orient.TwoColoringStage{CoverRadius: r}
				va, err := two.EncodeVar(g, nil)
				if err != nil {
					va = core.VarAdvice{0: bitstr.New(0)}
				}
				for _, a := range []core.VarAdvice{va, tamperVar(va, g.N())} {
					run("TwoColoringStage", func() error { _, _, err := two.DecodeVar(g, a, nil); return err })
				}
				run("OneBitCodec", func() error {
					_, _, err := core.OneBitCodec{Radius: r}.Decode(g, randomAdvice(rng, g.N(), 0.15))
					return err
				})
			}
			run("mis", func() error { return serveMIS(srv, g, plain) })

			s := orient.Schema{P: orient.DefaultParams()}
			if va, err := s.EncodeVar(g, nil); err == nil {
				for _, a := range []core.VarAdvice{va, tamperVar(va, g.N())} {
					run("orient", func() error { _, _, err := s.DecodeVar(g, a, nil); return err })
				}
			}
			three := coloring.NewThreeColoring()
			for _, a := range threeColoringAdvice(three, g, plain) {
				run("color3", func() error { _, _, err := three.Decode(g, a); return err })
			}
			cluster := coloring.ClusterColoringStage{CoverRadius: 2}
			if va, err := cluster.EncodeVar(g, nil); err == nil {
				for _, a := range []core.VarAdvice{va, tamperVar(va, g.N())} {
					run("cluster coloring", func() error { _, _, err := cluster.DecodeVar(g, a, nil); return err })
				}
			}
			if strings.HasPrefix(in.name, "cycle/") || strings.HasPrefix(in.name, "path/") {
				growthDecodes(run, growthSchema, g, plain)
			}
		}
		// Encoder advice for growth needs clusters larger than the
		// property graphs.
		encoded := graph.Cycle(500)
		graph.AssignPermutedIDs(encoded, rng)
		advice, err := growthSchema.Encode(encoded)
		if err != nil {
			t.Fatal(err)
		}
		run := func(what string, call func() error) {
			t.Helper()
			before := o.count()
			if err := call(); o.count() == before {
				t.Fatalf("%s on cycle-500 at %d workers checked no view (%v)", what, workers, err)
			}
		}
		growthDecodes(run, growthSchema, encoded, advice)
		growthDecodes(run, growthSchema, encoded, flipBits(advice, 7))
	}
	t.Logf("%d views checked", o.count())
	for _, f := range o.failures {
		t.Error(f)
	}
}

// growthSchema is the Theorem 4.1 schema the oracle decodes.
var growthSchema = growth.Schema{Problem: lcl.MIS{}, ClusterRadius: 40}

// growthDecodes runs the growth codec's decoder and its proof verifier.
func growthDecodes(run func(string, func() error), s growth.Schema, g *graph.Graph, advice local.Advice) {
	run("growth codec", func() error { _, _, err := s.Decode(g, advice); return err })
	run("growth proof", func() error { _, err := s.VerifyProof(g, advice); return err })
}

// threeColoringAdvice is the 3-coloring encoder's advice when it accepts g,
// with a tampered copy, and random 1-bit advice otherwise.
func threeColoringAdvice(three coloring.ThreeColoring, g *graph.Graph, random local.Advice) []local.Advice {
	if a, err := three.Encode(g); err == nil {
		return []local.Advice{a, flipBits(a, 4)}
	}
	return []local.Advice{random}
}

// serveMIS decodes MIS advice through the server's batch endpoint, which
// compiles the server's decoder into an eth table and runs it.
func serveMIS(srv *server.Server, g *graph.Graph, advice local.Advice) error {
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		return err
	}
	frame, err := server.EncodeBatchRequest("mis", server.GraphSpec{Text: text.String()}, false, []server.BatchItem{{Advice: advice}})
	if err != nil {
		return err
	}
	r := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(frame))
	r.Header.Set("Content-Type", "application/octet-stream")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != 200 {
		return fmt.Errorf("batch: %d %s", w.Code, w.Body)
	}
	return nil
}
