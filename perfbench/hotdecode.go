package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"localadvice/internal/bitstr"
	"localadvice/internal/cache"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/local"
	"localadvice/internal/server"
)

// hot-decode: JSON /v1/decode with the cache on over a dozen (schema,
// graph) pairs that all stay resident after warm-up. The warm path is HTTP,
// JSON, cache lookups and the per-request advice digest; the encoders and
// engines do no work, so an engine speed-up must not move this workload.

type hotPair struct {
	Schema string
	Family string
	N      int
}

// hotPairs mix the table-compiled schema with ball-engine schemas on
// cycles and tori of 1,024–4,096 nodes; every pair decodes in well under a
// second cold, which keeps set-up short.
var hotPairs = []hotPair{
	{"mis", "cycle", 1024},
	{"mis", "cycle", 4096},
	{"mis", "torus", 4096},
	{"orient", "cycle", 1024},
	{"orient", "cycle", 2048},
	{"orientdet", "cycle", 1024},
	{"orientdet", "cycle", 4096},
	{"color3", "cycle", 1024},
	{"color3", "torus", 1024},
	{"color3det", "cycle", 2048},
	{"color3det", "torus", 1024},
	{"growth", "cycle", 1024},
}

const (
	hotRoundLen = 1000 // requests per round
	setupReps   = 3    // set-ups per run (more where set-up takes milliseconds); setup_s is their median
	// hotWarmup is the untimed warm traffic before timing: round times
	// fall by a third over the first seconds after start.
	hotWarmup = 3.0
)

// hotBodies returns the JSON /v1/decode body of each pair. The seed only
// names the graphs (it is part of their cache keys); cycles and tori do not
// depend on it.
func hotBodies(seed int64) [][]byte {
	out := make([][]byte, len(hotPairs))
	for i, p := range hotPairs {
		out[i], _ = json.Marshal(server.DecodeRequest{Schema: p.Schema,
			Graph: server.GraphSpec{Family: p.Family, N: p.N, Seed: seed}})
	}
	return out
}

// hotRound returns round r's pair sequence, split over conns connections:
// every live pair equally often (to within one) in an order seeded by
// (seed, r), so the mix does not depend on the seed.
func hotRound(seed int64, r int, live []int, conns int) [][]int {
	seq := make([]int, hotRoundLen)
	for i := range seq {
		seq[i] = live[i%len(live)]
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	out := make([][]int, conns)
	for i, p := range seq {
		out[i%conns] = append(out[i%conns], p)
	}
	return out
}

type hotState struct {
	graphs []*graph.Graph
	bodies [][]byte
	ref    [][]byte // per pair: the first verified warm answer, timing cut off
}

func (h *hotState) verifyReq(i int) *request {
	return &request{path: "/v1/decode", ctype: "application/json", body: h.bodies[i], items: 1,
		check: func(body []byte) error {
			_, err := verifyDecodeBody(hotPairs[i].Schema, h.graphs[i], body)
			return err
		}}
}

// refReq records the pair's reference answer: verified, and a cache hit.
func (h *hotState) refReq(i int) *request {
	return &request{path: "/v1/decode", ctype: "application/json", body: h.bodies[i], items: 1,
		check: func(body []byte) error {
			resp, err := verifyDecodeBody(hotPairs[i].Schema, h.graphs[i], body)
			if err != nil {
				return err
			}
			if !resp.Cached {
				return errors.New("warm answer was not a cache hit")
			}
			h.ref[i] = bytes.Clone(stripElapsed(body))
			return nil
		}}
}

func (h *hotState) hotReq(i int) *request {
	return &request{path: "/v1/decode", ctype: "application/json", body: h.bodies[i], items: 1,
		check: func(body []byte) error {
			if !bytes.Equal(stripElapsed(body), h.ref[i]) {
				return fmt.Errorf("%s/%s-%d answer differs from its verified reference",
					hotPairs[i].Schema, hotPairs[i].Family, hotPairs[i].N)
			}
			return nil
		}}
}

func runHotDecode(e *env) (*result, error) {
	h := &hotState{bodies: hotBodies(e.seed), ref: make([][]byte, len(hotPairs))}
	for _, p := range hotPairs {
		g, err := harness.BuildGraph(p.Family, p.N, e.seed)
		if err != nil {
			return nil, err
		}
		h.graphs = append(h.graphs, g)
	}
	probes := make([]*request, len(hotPairs))
	for i := range hotPairs {
		probes[i] = h.verifyReq(i)
	}
	pass, err := preflight(e, serverOpts{cacheMB: 64}, probes)
	if err != nil {
		return nil, err
	}
	var live []int
	for i, ok := range pass {
		if ok {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil, errors.New("no (schema, graph) pair passed the pre-flight")
	}
	gen := func(r int) [][]*request {
		split := hotRound(e.seed, r, live, e.conns)
		out := make([][]*request, len(split))
		for c, idx := range split {
			for _, i := range idx {
				out[c] = append(out[c], h.hotReq(i))
			}
		}
		return out
	}

	c := newClient(e.conns)
	// Set-up: start cold, fill the caches (each pair decoded and verified)
	// and record each pair's reference answer.
	srv, setupS, err := repeatSetup(setupReps, func() (*serverProc, error) {
		srv, err := startServer(e.locad, serverOpts{cacheMB: 64})
		if err != nil {
			return nil, err
		}
		var fill, refs []*request
		for _, i := range live {
			fill = append(fill, h.verifyReq(i))
			refs = append(refs, h.refReq(i))
		}
		for _, batch := range [][]*request{fill, refs} {
			if err := warm(c, srv.base, batch, e.conns); err != nil {
				srv.stop()
				return nil, err
			}
		}
		return srv, nil
	}, (*serverProc).stop)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	warmFailed := warmRounds(c, srv.base, gen, hotWarmup)
	w, err := openWindow(c, srv)
	if err != nil {
		return nil, err
	}
	round0 := map[string]int64{}
	ph := runTimed(c, srv.base, gen, timedOpts{seconds: e.seconds, minReq: hotRoundLen,
		tr: e.tr, pid: srv.cmd.Process.Pid, after: func(r int) {
			if r == 0 {
				if st, err := srv.stats(c); err == nil {
					round0 = (&window{before: w.before, after: st}).counters()
				}
			}
		}})
	if err := w.close(c, srv); err != nil {
		return nil, err
	}

	res := servingResult(ph, w, round0, warmFailed)
	res.m["setup_s"] = setupS
	res.info["pairs_live"] = len(live)
	if e.tr != nil {
		w.layerMetrics(res.m, res.attempted, "decode", ph.driverCPU)
		layers, err := h.replay(e, c, srv, live, res.m)
		if err != nil {
			return nil, err
		}
		attribution(res.m, ph.p50("/v1/decode"), layers)
		overhead(res.m, ph, "latency_p50_ms")
	}
	return res, nil
}

// replay re-runs, in process, the layer calls the warm handler makes for
// each request of round 0 — request JSON decode, three cache hits, the
// advice digest, response JSON encode — each inside a span, and returns the
// median per-request sum of the replayed layers in milliseconds.
func (h *hotState) replay(e *env, c *http.Client, srv *serverProc, live []int, m metricSet) (float64, error) {
	advice := make(map[int]local.Advice)
	resp := make(map[int]*server.DecodeResponse)
	memo := cache.New(64 << 20)
	for _, i := range live {
		p := hotPairs[i]
		body, _ := json.Marshal(server.EncodeRequest{Schema: p.Schema,
			Graph: server.GraphSpec{Family: p.Family, N: p.N, Seed: e.seed}})
		status, out, err := post(c, srv.base+"/v1/encode", "application/json", body)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("replay: fetch advice for %v: HTTP %d %v", p, status, err)
		}
		var enc server.EncodeResponse
		if err := json.Unmarshal(out, &enc); err != nil {
			return 0, err
		}
		a := make(local.Advice, len(enc.Advice))
		for v, s := range enc.Advice {
			if a[v], err = bitstr.Parse(s); err != nil {
				return 0, err
			}
		}
		advice[i] = a
		var dr server.DecodeResponse
		if err := json.Unmarshal(append(bytes.Clone(h.ref[i]), '}'), &dr); err != nil {
			return 0, err
		}
		resp[i] = &dr
		for _, k := range hotKeys(i) {
			memo.Put(k, i, 1)
		}
	}
	tr := e.tr
	var layers []float64
	var seq int64 = 1 << 40 // replay request IDs stay clear of HTTP ones
	for _, idx := range hotRound(e.seed, 0, live, e.conns) {
		for _, i := range idx {
			seq++
			root := tr.start("replay", 0, seq)
			var sum float64
			sum += ms(tr.do("server.json_decode", root, seq, func(int64) {
				var req server.DecodeRequest
				_ = json.Unmarshal(h.bodies[i], &req) // the body was built by json.Marshal
			}))
			for _, k := range hotKeys(i) {
				sum += ms(tr.do("cache.do_hit", root, seq, func(int64) {
					memo.Do(k, func() (any, int64, error) { return nil, 0, errors.New("replay key not resident") })
				}))
			}
			sum += ms(tr.do("server.advice_digest", root, seq, func(int64) {
				dh := sha256.New()
				for _, s := range advice[i] {
					dh.Write([]byte(s.String()))
					dh.Write([]byte{0})
				}
				dh.Sum(nil)
			}))
			sum += ms(tr.do("server.json_encode", root, seq, func(int64) {
				_, _ = json.Marshal(resp[i]) // marshaling a DecodeResponse cannot fail
			}))
			tr.end(root)
			layers = append(layers, sum)
		}
	}
	self := selfByName(tr.spans)
	m["server.json_encode_us"] = medianDur(self["server.json_encode"], us)
	m["server.advice_digest_us"] = medianDur(self["server.advice_digest"], us)
	m["cache.do_hit_us"] = medianDur(self["cache.do_hit"], us)
	return median(layers), nil
}

// hotKeys are stand-ins for the three cache keys a warm decode looks up
// (graph, advice, decode result).
func hotKeys(i int) []string {
	return []string{fmt.Sprintf("graph:%d", i), fmt.Sprintf("advice:%d", i), fmt.Sprintf("decode:%d", i)}
}
