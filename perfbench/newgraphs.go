package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/persist"
	"localadvice/internal/server"
)

// new-graphs: a seeded stream of never-seen graphs sent as inline edge
// lists to /v1/decode (server advice) and /v1/encode. This is the prover
// path: parse, digest, encode, compile, verify and persist put. About a
// quarter of the requests revisit an earlier graph of the same connection,
// further back than the 1 MiB LRU holds, so every revisit loads from the
// store. growth and deltacolor are left out: one of their requests costs
// 0.4–15 s on these sizes.

type ngFamily struct {
	Name   string // cycle, regular (4-regular) or torus
	N      int
	Weight int // relative odds among a schema's live families
}

// Tori weigh less: one color3 request on a 1,024-node torus costs about
// ten times one on a 1,024-node cycle.
var ngFamilies = []ngFamily{{"cycle", 512, 2}, {"cycle", 1024, 2}, {"regular", 512, 1}, {"regular", 1024, 1}, {"torus", 1024, 1}}

var ngSchemas = []string{"mis", "orient", "orientdet", "orientlll", "color3", "color3det", "color3lll"}

type ngClass struct {
	Schema string
	Family ngFamily
}

const (
	ngSlots = 48 // requests per connection per round
	// ngReach is how many of its own connection's requests a revisit
	// reaches back at least. The smallest request leaves ~45 KB in the
	// LRU (a 512-node graph and its advice), so ngReach requests overflow
	// the 1 MiB cache whatever the other connection sends.
	ngReach = 32
	// ngRevisit is the revisit probability past ngReach; it makes about a
	// quarter of all requests revisits.
	ngRevisit = 0.75
	// ngDecode is the share of first visits sent to /v1/decode; the rest
	// go to /v1/encode, the prover path this workload is about.
	ngDecode = 1.0 / 3
	// ngSegment is the calibrated segment, in requests per connection: a
	// round takes seconds, a segment well under one.
	ngSegment = 12
)

// ngSlot is one request of a connection's round template.
type ngSlot struct {
	Class  int  // index into the live classes
	Encode bool // /v1/encode instead of /v1/decode
	Ref    int  // slot this request revisits, -1 for a never-seen graph
}

// ngCandidates are the (schema, family) classes the pre-flight checks.
// 4-regular graphs go only to mis, and tori not to orientdet or orientlll:
// on those graphs the orientation and 3-coloring provers fail most of the
// time, some only after seconds of LLL work, and a class whose verdict
// depends on the sampled graph would make the request mix depend on the
// seed.
func ngCandidates() []ngClass {
	var out []ngClass
	for _, s := range ngSchemas {
		for _, f := range ngFamilies {
			orientFamily := s == "orient" && f.Name != "regular"
			if s == "mis" || f.Name == "cycle" || orientFamily || (strings.HasPrefix(s, "color3") && f.Name == "torus") {
				out = append(out, ngClass{s, f})
			}
		}
	}
	return out
}

// ngTemplateSeed fixes the request mix. The mix is part of the workload's
// definition, so it does not change with the run seed, which draws the
// graphs; otherwise a seed that happens to draw many torus requests would
// read as a slower run.
const ngTemplateSeed = 0x6e67

// ngTemplate is the per-connection request template every round follows:
// schema uniform over schemas with a live class, family by weight among
// that schema's live families, decode with odds ngDecode, and revisits
// only to a never-seen slot at least ngReach earlier.
func ngTemplate(live []ngClass, conns int) [][]ngSlot {
	rng := rand.New(rand.NewSource(ngTemplateSeed))
	bySchema := map[string][]int{}
	var schemas []string
	for i, c := range live {
		if _, ok := bySchema[c.Schema]; !ok {
			schemas = append(schemas, c.Schema)
		}
		bySchema[c.Schema] = append(bySchema[c.Schema], i)
	}
	out := make([][]ngSlot, conns)
	for c := range out {
		var open []int // fresh slots not yet revisited
		for i := 0; i < ngSlots; i++ {
			var eligible []int
			for _, j := range open {
				if j <= i-ngReach {
					eligible = append(eligible, j)
				}
			}
			if len(eligible) > 0 && rng.Float64() < ngRevisit {
				j := eligible[rng.Intn(len(eligible))]
				for k, o := range open {
					if o == j {
						open = append(open[:k], open[k+1:]...)
						break
					}
				}
				out[c] = append(out[c], ngSlot{Class: out[c][j].Class, Encode: out[c][j].Encode, Ref: j})
				continue
			}
			fams := bySchema[schemas[rng.Intn(len(schemas))]]
			total := 0
			for _, f := range fams {
				total += live[f].Family.Weight
			}
			pick := rng.Intn(total)
			class := fams[0]
			for _, f := range fams {
				if pick -= live[f].Family.Weight; pick < 0 {
					class = f
					break
				}
			}
			out[c] = append(out[c], ngSlot{Class: class, Encode: rng.Float64() >= ngDecode, Ref: -1})
			open = append(open, i)
		}
	}
	return out
}

// ngGraph builds a never-seen graph of class cl from rng. Node IDs are a
// random permutation, except for the color3 schemas, whose ruling-group
// placement depends on the ID order and fails on some permuted labellings:
// their graphs get random IDs in the generator's order.
func ngGraph(cl ngClass, rng *rand.Rand) (*graph.Graph, error) {
	f := cl.Family
	var g *graph.Graph
	var err error
	switch f.Name {
	case "cycle":
		g, err = graph.TryCycle(f.N)
	case "regular":
		g, err = graph.RandomRegular(f.N, 4, rng)
	case "torus":
		g, err = harness.BuildGraph("torus", f.N, 0)
	default:
		err = fmt.Errorf("unknown family %q", f.Name)
	}
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(cl.Schema, "color3") {
		graph.RemapIDsOrderPreserving(g, rng)
	} else {
		graph.AssignPermutedIDs(g, rng)
	}
	return g, nil
}

// graphRNG seeds the graph of (round, connection, slot).
func graphRNG(seed int64, r, c, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7_919_003 + int64(r)*10_007 + int64(c)*1_009 + int64(i)))
}

// ngDraws bounds the graphs drawn for one slot before the round fails.
const ngDraws = 8

// encodableGraph pre-flights a single input: it draws graphs of class cl
// for slot (r, c, i) until the schema's prover, run in process, accepts
// one. Some random graphs of a class that passed the pre-flight are still
// rejected (an orientation trail without a marked pair, a coloring without
// a feasible mark group); the provers are deterministic, so the server
// accepts exactly the graphs accepted here.
func encodableGraph(cl ngClass, seed int64, r, c, i int) (*graph.Graph, error) {
	rng := graphRNG(seed, r, c, i)
	var err error
	for k := 0; k < ngDraws; k++ {
		var g *graph.Graph
		if g, err = ngGraph(cl, rng); err != nil {
			return nil, err
		}
		if _, err = encodeAdvice(cl.Schema, g, nil); err == nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no encodable %s graph for %s in %d draws: %w", cl.Family.Name, cl.Schema, ngDraws, err)
}

// ngRound is one round's instantiated requests and the state their checks
// share.
type ngRound struct {
	slots   [][]ngSlot
	graphs  [][]*graph.Graph
	texts   [][]string
	answers [][][]byte // first answer per slot, timing cut off
	reqs    [][]*request
}

// newNGRound instantiates round r of the template, one goroutine per
// connection.
func newNGRound(seed int64, r int, tmpl [][]ngSlot, live []ngClass) (*ngRound, error) {
	n := len(tmpl)
	rd := &ngRound{slots: tmpl, graphs: make([][]*graph.Graph, n), texts: make([][]string, n),
		answers: make([][][]byte, n), reqs: make([][]*request, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := range tmpl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = rd.buildConn(seed, r, c, live)
		}(c)
	}
	wg.Wait()
	return rd, errors.Join(errs...)
}

// buildConn fills connection c's graphs, texts and requests.
func (rd *ngRound) buildConn(seed int64, r, c int, live []ngClass) error {
	slots := rd.slots[c]
	rd.graphs[c] = make([]*graph.Graph, len(slots))
	rd.texts[c] = make([]string, len(slots))
	rd.answers[c] = make([][]byte, len(slots))
	for i, s := range slots {
		if s.Ref >= 0 {
			rd.graphs[c][i], rd.texts[c][i] = rd.graphs[c][s.Ref], rd.texts[c][s.Ref]
		} else {
			g, err := encodableGraph(live[s.Class], seed, r, c, i)
			if err != nil {
				return err
			}
			var sb strings.Builder
			if err := graph.WriteEdgeList(&sb, g); err != nil {
				return err
			}
			rd.graphs[c][i], rd.texts[c][i] = g, sb.String()
		}
		rd.reqs[c] = append(rd.reqs[c], rd.request(live[s.Class].Schema, c, i))
	}
	return nil
}

// request builds slot (c, i)'s request. A first visit is verified in full;
// a revisit must repeat the first visit's answer byte for byte.
func (rd *ngRound) request(schema string, c, i int) *request {
	s := rd.slots[c][i]
	spec := server.GraphSpec{Text: rd.texts[c][i]}
	rq := &request{ctype: "application/json", items: 1}
	if s.Encode {
		rq.path = "/v1/encode"
		rq.body, _ = json.Marshal(server.EncodeRequest{Schema: schema, Graph: spec})
	} else {
		rq.path = "/v1/decode"
		rq.body, _ = json.Marshal(server.DecodeRequest{Schema: schema, Graph: spec})
	}
	g := rd.graphs[c][i]
	rq.check = func(body []byte) error {
		stripped := stripElapsed(body)
		if s.Ref >= 0 {
			if !bytes.Equal(stripped, rd.answers[c][s.Ref]) {
				return fmt.Errorf("%s revisit answer differs from the first visit", schema)
			}
			return nil
		}
		var err error
		if s.Encode {
			_, err = checkEncodeBody(schema, g, body)
		} else {
			_, err = verifyDecodeBody(schema, g, body)
		}
		if err == nil {
			rd.answers[c][i] = bytes.Clone(stripped)
		}
		return err
	}
	return rq
}

// ngWarmRequests are set-up's warm-up: per connection, four mis encodes of
// 512-node cycles.
func ngWarmRequests(conns int) ([]*request, error) {
	tmpl := make([][]ngSlot, conns)
	for c := range tmpl {
		for i := 0; i < 4; i++ {
			tmpl[c] = append(tmpl[c], ngSlot{Encode: true, Ref: -1})
		}
	}
	rd, err := newNGRound(0, -1, tmpl, []ngClass{{"mis", ngFamilies[0]}})
	if err != nil {
		return nil, err
	}
	return slices.Concat(rd.reqs...), nil
}

// checkEncodeBody checks an encode answer's shape: advice for every node of
// this graph. Whether it decodes to a valid solution is checked in replay.
func checkEncodeBody(schema string, g *graph.Graph, body []byte) (local.Advice, error) {
	var resp server.EncodeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("encode answer: %w", err)
	}
	if resp.Schema != schema || resp.GraphDigest != g.Digest() || resp.N != g.N() || len(resp.Advice) != g.N() {
		return nil, fmt.Errorf("encode answer covers %d of %d nodes (digest match %v)",
			len(resp.Advice), g.N(), resp.GraphDigest == g.Digest())
	}
	advice := make(local.Advice, g.N())
	for v, s := range resp.Advice {
		var err error
		if advice[v], err = bitstr.Parse(s); err != nil {
			return nil, err
		}
	}
	return advice, nil
}

func runNewGraphs(e *env) (*result, error) {
	cands := ngCandidates()
	probes := make([]*request, len(cands))
	for i, cl := range cands {
		// The probes come from the template seed, not the run seed, so the
		// live classes (and with them the request mix) are the same for
		// every run seed; the rounds' own inputs are pre-flighted one by one.
		g, err := ngGraph(cl, graphRNG(ngTemplateSeed, -2, 0, i))
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := graph.WriteEdgeList(&sb, g); err != nil {
			return nil, err
		}
		schema := cl.Schema
		body, _ := json.Marshal(server.DecodeRequest{Schema: schema, Graph: server.GraphSpec{Text: sb.String()}})
		probes[i] = &request{path: "/v1/decode", ctype: "application/json", body: body,
			check: func(b []byte) error { _, err := verifyDecodeBody(schema, g, b); return err }}
	}
	pfDir, err := scratchDir(e.out, "store-preflight")
	if err != nil {
		return nil, err
	}
	pfStart := time.Now()
	pass, err := preflight(e, serverOpts{cacheMB: 1, storeDir: pfDir}, probes)
	if err != nil {
		return nil, err
	}
	preflightS := time.Since(pfStart).Seconds()
	var live []ngClass
	for i, ok := range pass {
		if ok {
			live = append(live, cands[i])
		}
	}
	if len(live) == 0 {
		return nil, errors.New("no (schema, family) class passed the pre-flight")
	}
	tmpl := ngTemplate(live, e.conns)
	var round0 *ngRound
	gen := func(r int) [][]*request {
		rd, err := newNGRound(e.seed, r, tmpl, live)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: build round:", err)
			os.Exit(1)
		}
		if r == 0 {
			round0 = rd
		}
		return rd.reqs
	}

	c := newClient(e.conns)
	setupN := 0
	srv, setupS, err := repeatSetup(3*setupReps, func() (*serverProc, error) {
		setupN++
		dir, err := scratchDir(e.out, fmt.Sprintf("store-%d", setupN))
		if err != nil {
			return nil, err
		}
		srv, err := startServer(e.locad, serverOpts{cacheMB: 1, storeDir: dir})
		if err != nil {
			return nil, err
		}
		// Warm-up: the same few cheap requests whatever the seed, so set-up
		// time does not depend on which classes a seed's rounds start with.
		first, err := ngWarmRequests(e.conns)
		if err != nil {
			srv.stop()
			return nil, err
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
	ph := runTimed(c, srv.base, gen, timedOpts{seconds: e.seconds, segment: ngSegment,
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
	res.info["preflight_s"] = preflightS
	res.info["classes_live"] = len(live)
	revisits := 0
	for _, slots := range tmpl {
		for _, s := range slots {
			if s.Ref >= 0 {
				revisits++
			}
		}
	}
	res.info["revisit_share"] = float64(revisits) / float64(len(tmpl)*ngSlots)
	if e.tr != nil {
		w.layerMetrics(res.m, res.attempted, "decode", ph.driverCPU)
		layers, wrong, err := replayNewGraphs(e, round0, live, res)
		if err != nil {
			return nil, err
		}
		res.wrong += wrong
		attribution(res.m, ph.p50("/v1/decode"), layers)
		overhead(res.m, ph, "latency_p50_ms")
	}
	return res, nil
}

// replayNewGraphs replays round 0 in process: every request's graph parse,
// digest and snapshot; each first visit's encode (LLL events counted) and
// each revisit's advice load; each decode request's decode and verify.
// Encode answers are decoded and verified here too. It returns the median
// layer sum in ms of the /v1/decode requests (the endpoint the attribution
// compares against) and the number of encode answers that failed to decode
// to a valid solution.
func replayNewGraphs(e *env, rd *ngRound, live []ngClass, res *result) (float64, int, error) {
	tr := e.tr
	m := res.m
	col := &obs.Collector{}
	var layers []float64
	wrong := 0
	encodeMs := map[string][]time.Duration{}
	var seq int64 = 1 << 40
	for c, slots := range rd.slots {
		stored := make([][]byte, len(slots)) // advice records of first visits
		for i, s := range slots {
			schema := live[s.Class].Schema
			seq++
			root := tr.start("replay", 0, seq)
			var sum time.Duration
			var g *graph.Graph
			var err error
			sum += tr.do("graph.parse", root, seq, func(int64) {
				g, err = graph.ReadEdgeList(strings.NewReader(rd.texts[c][i]))
			})
			if err != nil {
				return 0, 0, err
			}
			sum += tr.do("graph.digest", root, seq, func(int64) { g.Digest() })
			sum += tr.do("graph.snapshot", root, seq, func(int64) { g.Snapshot() })
			var advice local.Advice
			if s.Ref < 0 {
				d := tr.do("encode."+schema, root, seq, func(int64) { advice, err = encodeAdvice(schema, g, col) })
				encodeMs[schema] = append(encodeMs[schema], d)
				sum += d
				if err == nil {
					stored[i] = persist.EncodeAdvice(advice)
				}
			} else {
				sum += tr.do("persist.advice_decode", root, seq, func(int64) { advice, err = persist.DecodeAdvice(stored[s.Ref]) })
			}
			if err != nil {
				return 0, 0, fmt.Errorf("replay encode %s: %w", schema, err)
			}
			if !s.Encode {
				var sol *lcl.Solution
				sum += tr.do("decode."+schema, root, seq, func(int64) { sol, _, err = decodeAdvice(schema, g, advice) })
				if err == nil {
					sum += tr.do("lcl.verify", root, seq, func(int64) { err = verifyLabels(schema, g, sol.Node, edgeLabels(sol)) })
				}
				if err != nil {
					return 0, 0, fmt.Errorf("replay decode %s: %w", schema, err)
				}
			}
			tr.end(root)
			if !s.Encode {
				layers = append(layers, ms(sum))
			}
			if s.Encode && s.Ref < 0 {
				if err := decodesValid(schema, g, rd.answers[c][i]); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s encode answer: %v\n", schema, err)
					wrong++
				}
			}
		}
	}
	self := selfByName(tr.spans)
	m["graph.parse_ms"] = medianDur(self["graph.parse"], ms)
	m["graph.digest_us"] = medianDur(self["graph.digest"], us)
	m["graph.snapshot_us"] = medianDur(self["graph.snapshot"], us)
	for _, s := range ngSchemas[1:] {
		m["encode."+s+"_ms"] = medianDur(encodeMs[s], ms)
	}
	evals, resamp := eventTotal(col, "lll.evaluations"), eventTotal(col, "lll.resamplings")
	m["lll.evaluations"] = float64(evals)
	m["lll.resamplings"] = float64(resamp)
	res.exact["lll.evaluations"] = evals
	res.exact["lll.resamplings"] = resamp
	return median(layers), wrong, nil
}

// decodesValid checks that an encode answer (timing cut off) carries advice
// that decodes to a valid solution.
func decodesValid(schema string, g *graph.Graph, answer []byte) error {
	if answer == nil {
		return errors.New("no verified answer was recorded")
	}
	advice, err := checkEncodeBody(schema, g, append(bytes.Clone(answer), '}'))
	if err != nil {
		return err
	}
	sol, _, err := decodeAdvice(schema, g, advice)
	if err != nil {
		return err
	}
	return verifyLabels(schema, g, sol.Node, edgeLabels(sol))
}

// edgeLabels returns sol's edge labels when any is set (the orientation
// schemas), nil otherwise.
func edgeLabels(sol *lcl.Solution) []int {
	for _, l := range sol.Edge {
		if l != lcl.Unset {
			return sol.Edge
		}
	}
	return nil
}
