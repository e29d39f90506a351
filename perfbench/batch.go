package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"localadvice/internal/eth"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/persist"
	"localadvice/internal/server"
)

// batch-decompress: binary /v1/batch frames with the cache flag off, each
// carrying batchItems inline-advice items on one graph. This is the
// paper's local decompression of client-held advice: the decode engine,
// eth and lcl verify do the work, with no encoder, no JSON and no cache.
// Every item of a frame carries its own advice, so no answer can be copied
// from another item. Frames use the extended item form, whose answers
// carry edge labels, so orientations are verified too.

type batchPair struct {
	Schema string
	Family string
	N      int
}

// batchPairs leave out two (schema, graph) pairs: orientlll on the
// 1,024-node torus exceeds the Moser–Tardos resampling cap after seconds
// of work, and one color3lll item on it decodes in ~130 ms, which would
// make it most of every round.
var batchPairs = []batchPair{
	{"mis", "cycle", 1024},
	{"mis", "torus", 1024},
	{"orientlll", "cycle", 1024},
	{"color3lll", "cycle", 1024},
}

const batchItems = 16 // items per frame, each with its own advice

// batchSegment is the calibrated segment, in frames per connection: a round
// takes about a second, a segment half of that.
const batchSegment = 2

// batchFramesPer is each pair's frame count per round. Frame costs form
// one cluster per schema: a mis frame costs about 45 ms of decode, a
// color3lll frame 90 ms and an orientlll frame 300 ms. Two mis frames (one
// per pair), three color3lll and two orientlll put the median frame in the
// middle of the color3lll cluster, not on the edge between two clusters,
// where it would jump with the advice each seed draws.
var batchFramesPer = map[string]int{"mis": 1, "orientlll": 2, "color3lll": 3}

// batchInput is one pair's graph and the distinct advice its items carry.
type batchInput struct {
	pair   batchPair
	spec   server.GraphSpec
	g      *graph.Graph
	advice []local.Advice
	// answers holds each advice's first verified answer (node labels, then
	// edge labels, as one byte string); both connections' checks use it.
	mu      sync.Mutex
	answers [][]byte
}

// batchAdvice computes a pair's item advice: Moser–Tardos under distinct
// seeds for the LLL schemas, greedy MIS in distinct random orders for mis.
func batchAdvice(p batchPair, g *graph.Graph, seed int64, pi int) ([]local.Advice, error) {
	out := make([]local.Advice, batchItems)
	for j := range out {
		itemSeed := seed*1_000_033 + int64(pi)*101 + int64(j)
		if p.Schema == "mis" {
			out[j] = misAdvice(g, rand.New(rand.NewSource(itemSeed)).Perm(g.N()))
			continue
		}
		ds, _, ok := detSchema(p.Schema)
		if !ok {
			return nil, fmt.Errorf("no adapter for %q", p.Schema)
		}
		a, err := ds.EncodeWith(harness.MethodMT, g, itemSeed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s-%d advice: %w", p.Schema, p.Family, p.N, err)
		}
		out[j] = a
	}
	return out, nil
}

func buildBatchInputs(seed int64) ([]*batchInput, error) {
	var out []*batchInput
	for pi, p := range batchPairs {
		spec := server.GraphSpec{Family: p.Family, N: p.N, Seed: seed}
		g, err := harness.BuildGraph(p.Family, p.N, seed)
		if err != nil {
			return nil, err
		}
		advice, err := batchAdvice(p, g, seed, pi)
		if err != nil {
			return nil, err
		}
		out = append(out, &batchInput{pair: p, spec: spec, g: g, advice: advice, answers: make([][]byte, len(advice))})
	}
	return out, nil
}

// batchTemplateSeed fixes the order of the pairs' frames in a round. Which
// frames the two connections send at the same time sets how long each
// waits for the other (an orientlll frame takes twice as long next to
// another), so the order is part of the workload's definition and the same
// for every round and run seed.
const batchTemplateSeed = 0x6261

// batchFrames returns round r's frames: batchFramesPer of each pair in the
// template order, each frame holding every advice of its pair once in an
// order seeded by (seed, r). orders[f] gives the advice index of each item
// of frame f.
func batchFrames(seed int64, r int, pairs []*batchInput) (pairOf []int, orders [][]int) {
	for pi, in := range pairs {
		for k := 0; k < batchFramesPer[in.pair.Schema]; k++ {
			pairOf = append(pairOf, pi)
		}
	}
	rand.New(rand.NewSource(batchTemplateSeed)).Shuffle(len(pairOf), func(i, j int) {
		pairOf[i], pairOf[j] = pairOf[j], pairOf[i]
	})
	rng := rand.New(rand.NewSource(seed*1_000_039 + int64(r)))
	for range pairOf {
		orders = append(orders, rng.Perm(batchItems))
	}
	return pairOf, orders
}

// frameRequest frames one batch and checks its answer item by item: an
// advice's first answer is verified against the problem, later answers
// must repeat it.
func frameRequest(in *batchInput, order []int, keep *[]byte) (*request, error) {
	items := make([]server.BatchItem, len(order))
	for k, j := range order {
		items[k] = server.BatchItem{Advice: in.advice[j]}
	}
	body, err := server.EncodeBatchRequestExt(in.pair.Schema, in.spec, false, items)
	if err != nil {
		return nil, err
	}
	return &request{path: "/v1/batch", ctype: "application/octet-stream", body: body, items: len(order),
		check: func(b []byte) error {
			if keep != nil {
				*keep = bytes.Clone(b)
			}
			digest, results, err := server.DecodeBatchResponseExt(b)
			if err != nil {
				return err
			}
			if digest != in.g.Digest() || len(results) != len(order) {
				return fmt.Errorf("batch answer: %d items for %d, digest match %v", len(results), len(order), digest == in.g.Digest())
			}
			for k, res := range results {
				j := order[k]
				if res.Err != nil {
					return fmt.Errorf("item %d: HTTP %d %s", k, res.Err.Status, res.Err.Msg)
				}
				got := labelBytes(res.Labels, res.EdgeLabels)
				in.mu.Lock()
				want := in.answers[j]
				in.mu.Unlock()
				if want == nil {
					if err := verifyLabels(in.pair.Schema, in.g, res.Labels, res.EdgeLabels); err != nil {
						return fmt.Errorf("item %d: %w", k, err)
					}
					in.mu.Lock()
					in.answers[j] = got
					in.mu.Unlock()
				} else if !bytes.Equal(got, want) {
					return fmt.Errorf("item %d: answer differs from its verified first answer", k)
				}
			}
			return nil
		}}, nil
}

// labelBytes serialises node then edge labels for byte comparison.
func labelBytes(nodes, edges []int) []byte {
	out := make([]byte, 0, 4*(len(nodes)+len(edges)+1))
	for _, l := range nodes {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(l)))
	}
	out = binary.LittleEndian.AppendUint32(out, 0xffffffff)
	for _, l := range edges {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(l)))
	}
	return out
}

// batchFrame is a sent frame kept for the traced replay.
type batchFrame struct {
	in    *batchInput
	order []int
	resp  *[]byte // the answer, recorded by the frame's check
}

func runBatch(e *env) (*result, error) {
	adviceStart := time.Now()
	inputs, err := buildBatchInputs(e.seed)
	if err != nil {
		return nil, err
	}
	adviceS := time.Since(adviceStart).Seconds()

	// Pre-flight: one frame per pair on a throwaway server.
	var probes []*request
	for _, in := range inputs {
		rq, err := frameRequest(in, identity(batchItems), nil)
		if err != nil {
			return nil, err
		}
		probes = append(probes, rq)
	}
	pass, err := preflight(e, serverOpts{cacheMB: 64}, probes)
	if err != nil {
		return nil, err
	}
	var live []*batchInput
	for i, ok := range pass {
		if ok {
			live = append(live, inputs[i])
		}
	}
	if len(live) == 0 {
		return nil, errors.New("no (schema, graph) pair passed the pre-flight")
	}
	var round0 []batchFrame
	gen := func(r int) [][]*request {
		pairOf, orders := batchFrames(e.seed, r, live)
		out := make([][]*request, e.conns)
		for f, pi := range pairOf {
			var keep *[]byte
			if r == 0 {
				keep = new([]byte)
			}
			rq, err := frameRequest(live[pi], orders[f], keep)
			if err != nil {
				panic(err) // frames of pre-flighted inputs always encode
			}
			out[f%e.conns] = append(out[f%e.conns], rq)
			if r == 0 {
				round0 = append(round0, batchFrame{live[pi], orders[f], keep})
			}
		}
		return out
	}

	c := newClient(e.conns)
	srv, setupS, err := repeatSetup(3*setupReps, func() (*serverProc, error) {
		srv, err := startServer(e.locad, serverOpts{cacheMB: 64})
		if err != nil {
			return nil, err
		}
		// Warm-up: a one-item frame of every pair.
		var first []*request
		for _, in := range live {
			rq, err := frameRequest(in, identity(1), nil)
			if err != nil {
				srv.stop()
				return nil, err
			}
			first = append(first, rq)
		}
		if err := warm(c, srv.base, first, e.conns); err != nil {
			srv.stop()
			return nil, err
		}
		return srv, nil
	}, (*serverProc).stop)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	warmFailed := warmRounds(c, srv.base, gen, 1)
	w, err := openWindow(c, srv)
	if err != nil {
		return nil, err
	}
	r0 := map[string]int64{}
	ph := runTimed(c, srv.base, gen, timedOpts{seconds: e.seconds, segment: batchSegment,
		tr: e.tr, pid: srv.cmd.Process.Pid, after: func(r int) {
			if r == 0 {
				if st, err := srv.stats(c); err == nil {
					r0 = (&window{before: w.before, after: st}).counters()
				}
			}
		}})
	if err := w.close(c, srv); err != nil {
		return nil, err
	}
	res := servingResult(ph, w, r0, warmFailed)
	res.m["setup_s"] = setupS
	res.info["advice_gen_s"] = adviceS
	res.info["pairs_live"] = len(live)
	distinct := map[string]bool{}
	for _, in := range live {
		for _, a := range in.advice {
			distinct[string(persist.EncodeAdvice(a))] = true
		}
	}
	res.info["distinct_advice"] = len(distinct)
	if e.tr != nil {
		w.layerMetrics(res.m, res.attempted, "batch", ph.driverCPU)
		layers, err := replayBatch(e, round0, res)
		if err != nil {
			return nil, err
		}
		attribution(res.m, ph.p50("/v1/batch"), layers)
		overhead(res.m, ph, "exp_s")
	}
	return res, nil
}

// replayBatch replays round 0's frames in process — frame encode, the
// server's per-frame graph build, per item the advice decode, advice
// digest, decode (eth table compile and run for mis, the ball engine
// otherwise) and verify, then response decode — and returns the median
// per-frame layer sum in ms.
func replayBatch(e *env, frames []batchFrame, res *result) (float64, error) {
	tr := e.tr
	m := res.m
	col := &obs.Collector{}
	prev := obs.Default()
	obs.SetDefault(col)
	defer obs.SetDefault(prev)
	var layers []float64
	decodeMs := map[string][]time.Duration{}
	var respBytes, rounds, entries int64
	var seq int64 = 1 << 40
	for _, f := range frames {
		seq++
		root := tr.start("replay", 0, seq)
		var sum time.Duration
		items := make([]server.BatchItem, len(f.order))
		for k, j := range f.order {
			items[k] = server.BatchItem{Advice: f.in.advice[j]}
		}
		sum += tr.do("batch.frame_encode", root, seq, func(int64) {
			_, _ = server.EncodeBatchRequestExt(f.in.pair.Schema, f.in.spec, false, items) // encoded before, cannot fail
		})
		var g *graph.Graph
		var err error
		sum += tr.do("graph.build", root, seq, func(int64) {
			g, err = harness.BuildGraph(f.in.pair.Family, f.in.pair.N, f.in.spec.Seed)
			if err == nil {
				g.Digest()
				g.Snapshot()
			}
		})
		if err != nil {
			return 0, err
		}
		schema := f.in.pair.Schema
		for _, j := range f.order {
			payload := persist.EncodeAdvice(f.in.advice[j])
			var a local.Advice
			sum += tr.do("persist.advice_decode", root, seq, func(int64) { a, err = persist.DecodeAdvice(payload) })
			if err != nil {
				return 0, err
			}
			sum += tr.do("server.advice_digest", root, seq, func(int64) {
				h := sha256.New()
				for _, s := range a {
					h.Write([]byte(s.String()))
					h.Write([]byte{0})
				}
				h.Sum(nil)
			})
			var sol *lcl.Solution
			var st local.Stats
			if schema == "mis" {
				var table *eth.Table
				var cerr error
				sum += tr.do("eth.compile", root, seq, func(int64) { table, cerr = misCompile(g, a) })
				if cerr != nil {
					return 0, cerr
				}
				entries = int64(len(table.Entries))
				sum += tr.do("eth.run", root, seq, func(int64) { sol, st, err = misRun(table, g, a) })
			} else {
				d := tr.do("decode."+schema, root, seq, func(int64) { sol, st, err = decodeAdvice(schema, g, a) })
				decodeMs[schema] = append(decodeMs[schema], d)
				sum += d
			}
			if err != nil {
				return 0, fmt.Errorf("replay %s decode: %w", schema, err)
			}
			rounds += int64(st.Rounds)
			sum += tr.do("lcl.verify", root, seq, func(int64) { err = verifyLabels(schema, g, sol.Node, edgeLabels(sol)) })
			if err != nil {
				return 0, fmt.Errorf("replay %s verify: %w", schema, err)
			}
		}
		if f.resp != nil && *f.resp != nil {
			respBytes += int64(len(*f.resp))
			sum += tr.do("batch.frame_decode", root, seq, func(int64) { _, _, err = server.DecodeBatchResponseExt(*f.resp) })
			if err != nil {
				return 0, err
			}
		}
		tr.end(root)
		layers = append(layers, ms(sum))
	}
	self := selfByName(tr.spans)
	m["batch.frame_encode_us"] = medianDur(self["batch.frame_encode"], us)
	m["batch.frame_decode_us"] = medianDur(self["batch.frame_decode"], us)
	m["batch.response_bytes"] = float64(respBytes) / float64(max(len(frames), 1))
	m["persist.advice_decode_us"] = medianDur(self["persist.advice_decode"], us)
	m["decode.orientlll_ms"] = medianDur(decodeMs["orientlll"], ms)
	m["decode.color3lll_ms"] = medianDur(decodeMs["color3lll"], ms)
	m["eth.compile_ms"] = medianDur(self["eth.compile"], ms)
	m["eth.run_us"] = medianDur(self["eth.run"], us)
	m["eth.table_entries"] = float64(entries)
	m["lcl.verify_ms"] = medianDur(self["lcl.verify"], ms)
	views := eventTotal(col, "ball.views")
	m["local.ball_views"] = float64(views)
	m["local.rounds"] = float64(rounds)
	res.exact["local.ball_views"] = views
	res.exact["local.rounds"] = rounds
	return median(layers), nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
