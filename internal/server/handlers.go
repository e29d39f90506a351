package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/cache"
	"localadvice/internal/eth"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/persist"
)

// GraphSpec names a graph in a request: either an inline edge-list text
// (the graph.WriteEdgeList format) or a generated family with size and
// seed (the vocabulary of harness.BuildGraph and the locad CLI).
type GraphSpec struct {
	Text   string `json:"text,omitempty"`
	Family string `json:"family,omitempty"`
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// specCacheKey maps a graph spec onto its cache key — `graph:text:<sha256>`
// for inline edge lists, `graph:<family>:<n>:<seed>` for generated families
// whose construction reads the seed, and `graph:<family>:<n>` for those
// that give one graph at every seed (DESIGN.md §7). The key is a pure
// function of the request bytes, so resolveGraph finds a resident graph
// without building or parsing it.
func specCacheKey(spec GraphSpec) (string, error) {
	switch {
	case spec.Text != "":
		if spec.Family != "" {
			return "", errf(http.StatusBadRequest, "bad_graph_spec",
				"graph spec sets both text and family")
		}
		return "graph:text:" + sha256hex(spec.Text), nil
	case spec.Family != "":
		if spec.N <= 0 {
			return "", errf(http.StatusBadRequest, "bad_graph_spec",
				"graph spec needs n > 0, got %d", spec.N)
		}
		if !harness.GraphReadsSeed(spec.Family) {
			return fmt.Sprintf("graph:%s:%d", spec.Family, spec.N), nil
		}
		return fmt.Sprintf("graph:%s:%d:%d", spec.Family, spec.N, spec.Seed), nil
	default:
		return "", errf(http.StatusBadRequest, "bad_graph_spec",
			"graph spec needs either text or family")
	}
}

// cachedGraph is a resolved graph: the graph with its CSR snapshot
// prebuilt, its digest (the root of every derived cache key), and the
// request's seed.
type cachedGraph struct {
	g      *graph.Graph
	digest string
	// seed is the request spec's seed. Seed-dependent schemas fold it into
	// their advice keys, so one resident graph of a family that ignores
	// its seed (cycle, path, grid, torus), or of an inline edge list,
	// yields one advice artifact per seed under a seeded schema — and
	// exactly one under a det-mode schema. The resident entry carries the
	// seed its key names, or 0 where the key names none; resolveGraph
	// hands other seeds a copy.
	seed int64
}

// adviceArtifact is the resident form of encoded advice: the assignment and
// its digest (adviceDigest), computed once when the artifact is made — by
// an encode or a store load — so a warm decode reads it instead of hashing
// n nodes again. Cache-off requests build no key, so their artifacts carry
// no digest.
type adviceArtifact struct {
	advice local.Advice
	digest string
}

func newAdviceArtifact(advice local.Advice) *adviceArtifact {
	return &adviceArtifact{advice: advice, digest: adviceDigest(advice)}
}

// decodeArtifact is the resident form of a decode result.
type decodeArtifact struct {
	sol          *lcl.Solution
	stats        local.Stats
	tableEntries int // size of the compiled eth.Table, when one was used
	// body is the /v1/decode response, rendered once (render): everything
	// json.Marshal(DecodeResponse) writes except the per-request values of
	// "cached" (which goes at split) and "elapsed_nanos" (which goes at the
	// end). Nil until rendered; batch items that bypass the cache skip it.
	body  []byte
	split int
}

// edgeLabels is the solution's edge labeling, or nil when the schema
// labeled no edge (DecodeResponse.EdgeLabels is then omitted).
func (a *decodeArtifact) edgeLabels() []int {
	for _, l := range a.sol.Edge {
		if l != lcl.Unset {
			return a.sol.Edge
		}
	}
	return nil
}

// render fills body with the artifact's response fields, in the order and
// spelling json.Marshal gives DecodeResponse (TestDecodeBodyMatchesMarshal
// holds them to it).
func (a *decodeArtifact) render(schema, graphDigest string) {
	edge := a.edgeLabels()
	name, _ := json.Marshal(schema) // marshaling a string cannot fail
	digest, _ := json.Marshal(graphDigest)
	// Labels are small integers: most take at most three bytes and a comma.
	b := make([]byte, 0, 192+len(name)+len(digest)+4*(len(a.sol.Node)+len(edge)))
	b = append(b, `{"schema":`...)
	b = append(b, name...)
	b = append(b, `,"graph_digest":`...)
	b = append(b, digest...)
	b = append(b, `,"labels":`...)
	b = appendJSONInts(b, a.sol.Node)
	if len(edge) > 0 {
		b = append(b, `,"edge_labels":`...)
		b = appendJSONInts(b, edge)
	}
	b = append(b, `,"rounds":`...)
	b = strconv.AppendInt(b, int64(a.stats.Rounds), 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, int64(a.stats.Messages), 10)
	b = append(b, `,"verified":true,"cached":`...)
	a.split = len(b)
	if a.tableEntries != 0 {
		b = append(b, `,"table_entries":`...)
		b = strconv.AppendInt(b, int64(a.tableEntries), 10)
	}
	a.body = append(b, `,"elapsed_nanos":`...)
}

// response assembles one request's /v1/decode body from the rendered
// fields, byte for byte json.Marshal(DecodeResponse) and a newline.
// Concurrent requests share body, so each copies it into its own buffer.
func (a *decodeArtifact) response(hit bool, elapsedNanos int64) jsonBody {
	b := make([]byte, 0, len(a.body)+len(`false}`)+24)
	b = append(b, a.body[:a.split]...)
	b = strconv.AppendBool(b, hit)
	b = append(b, a.body[a.split:]...)
	b = strconv.AppendInt(b, elapsedNanos, 10)
	return append(b, "}\n"...)
}

// appendJSONInts appends labels as json.Marshal renders an []int.
func appendJSONInts(b []byte, labels []int) []byte {
	if labels == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return append(b, ']')
}

// useCache reads a request's optional "cache" field (default true). The
// cold benchmark path sets it to false to measure full recomputation:
// cache:false bypasses every caching layer — the LRU *and* the persistent
// store — so a cold request always prices the full engine pipeline.
func (s *Server) useCache(p *bool) bool { return p == nil || *p }

// doCached funnels one artifact through the cache, or computes it directly
// on the cold path (counted as a bypass, labeled with the endpoint that
// asked so /v1/stats can split verify/experiment traffic from benchmark
// cold decodes).
func (s *Server) doCached(key string, cached bool, src string, compute func() (any, int64, error)) (any, bool, error) {
	if cached {
		return s.cache.Do(key, compute)
	}
	if c, ok := s.bypasses[src]; ok {
		c.Add(1)
	}
	v, _, err := compute()
	return v, false, err
}

// storeLoadAdvice consults the persistent store for an encoded advice
// record. Corrupt or mis-shaped records are treated as misses (the caller
// recomputes and Put self-heals the file).
func (s *Server) storeLoadAdvice(key string, g *graph.Graph) (local.Advice, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, kind, ok, err := s.store.Get(key)
	if err != nil || !ok || kind != persist.KindAdvice {
		return nil, false
	}
	advice, err := persist.DecodeAdvice(payload)
	if err != nil || len(advice) != g.N() {
		s.storeMetrics.ObserveError()
		return nil, false
	}
	return advice, true
}

// storeLoadTable consults the store for a compiled table, decoding outputs
// with the schema's binary codec.
func (s *Server) storeLoadTable(key string, sc *schemaEntry) (*eth.Table, bool) {
	if s.store == nil || sc.TableDecode == nil {
		return nil, false
	}
	payload, kind, ok, err := s.store.Get(key)
	if err != nil || !ok || kind != persist.KindTable {
		return nil, false
	}
	table, err := eth.LoadTableBinary(bytes.NewReader(payload), sc.TableDecode)
	if err != nil {
		s.storeMetrics.ObserveError()
		return nil, false
	}
	return table, true
}

// storePut writes one artifact through to disk. Failures are recorded in
// the store metrics but never fail the request: persistence is an
// optimization, not a dependency.
func (s *Server) storePut(key string, kind persist.Kind, payload []byte) {
	if s.store == nil {
		return
	}
	_ = s.store.Put(key, kind, payload) // Put counts its own errors
}

// resolveSchema looks a schema up in the registry (404 on miss).
func (s *Server) resolveSchema(name string) (*schemaEntry, error) {
	sc, ok := s.schemas[name]
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown_schema",
			"unknown schema %q (have %s)", name, strings.Join(schemaNames(s.schemas), ", "))
	}
	return sc, nil
}

// resolveGraph validates a spec and produces the (possibly cached) graph.
// Graphs are cheap to rebuild relative to their on-disk size, so they are
// memoized in the LRU but never persisted.
func (s *Server) resolveGraph(spec GraphSpec, cached bool, src string) (*cachedGraph, bool, error) {
	key, err := specCacheKey(spec)
	if err != nil {
		return nil, false, err
	}
	var build func() (*graph.Graph, error)
	if spec.Text != "" {
		// The bound stops the parse at the n line, before the parser
		// allocates anything for a count the server would refuse.
		build = func() (*graph.Graph, error) {
			g, err := graph.ReadEdgeListBounded(strings.NewReader(spec.Text), s.cfg.MaxNodes)
			var tooMany *graph.NodeLimitError
			if errors.As(err, &tooMany) {
				return nil, errf(http.StatusRequestEntityTooLarge, "graph_too_large",
					"graph has %d nodes, server bound is %d", tooMany.N, s.cfg.MaxNodes)
			}
			return g, err
		}
	} else {
		if spec.N > s.cfg.MaxNodes {
			return nil, false, errf(http.StatusRequestEntityTooLarge, "graph_too_large",
				"requested %d nodes exceeds the server bound %d", spec.N, s.cfg.MaxNodes)
		}
		build = func() (*graph.Graph, error) {
			g, err := harness.BuildGraph(spec.Family, spec.N, spec.Seed)
			if err != nil {
				// Unknown family, size too small for the family, and every
				// other construction failure is a bad spec, not a server bug.
				return nil, errf(http.StatusBadRequest, "bad_graph_spec", "%v", err)
			}
			return g, nil
		}
	}
	v, hit, err := s.doCached(key, cached, src, func() (any, int64, error) {
		g, err := build()
		if err != nil {
			return nil, 0, err
		}
		if g.N() > s.cfg.MaxNodes {
			return nil, 0, errf(http.StatusRequestEntityTooLarge, "graph_too_large",
				"graph has %d nodes, server bound is %d", g.N(), s.cfg.MaxNodes)
		}
		g.Snapshot() // prebuild the CSR so every later engine run reuses it
		var seed int64
		if spec.Text == "" && harness.GraphReadsSeed(spec.Family) {
			seed = spec.Seed // the key names it
		}
		return &cachedGraph{g: g, digest: g.Digest(), seed: seed}, graphSize(g), nil
	})
	if err != nil {
		return nil, false, err
	}
	cg := v.(*cachedGraph)
	if cg.seed != spec.Seed {
		c := *cg
		c.seed = spec.Seed
		cg = &c
	}
	return cg, hit, nil
}

// graphSize estimates a resident graph's footprint: IDs, adjacency +
// incidence lists, the edge list, and the CSR snapshot.
func graphSize(g *graph.Graph) int64 {
	return 256 + 8*int64(g.N()) + 56*int64(g.M())
}

func adviceSize(a local.Advice) int64 {
	return 64 + 24*int64(len(a)) + int64(a.TotalBits())
}

// solutionSize counts a decode artifact's labels and its rendered body.
func solutionSize(art *decodeArtifact) int64 {
	return 64 + 8*int64(len(art.sol.Node)+len(art.sol.Edge)) + int64(cap(art.body))
}

// adviceDigest is the advice component of decode: and table: keys: the hex
// SHA-256 of every node's bits as '0'/'1' text, each node's text followed by
// a 0 byte — byte for byte the hash of one String() per node that stored
// table keys were written with (DESIGN.md decision 7). It streams the bits
// through one buffer rather than building a string per node. Request advice
// hashes the same: bitstr.Parse accepts only '0' and '1', so the request's
// text is String() of what it parsed to.
func adviceDigest(a local.Advice) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for _, s := range a {
		if len(buf)+s.Len()+1 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		for i := 0; i < s.Len(); i++ {
			buf = append(buf, '0'+byte(s.Bit(i)))
		}
		buf = append(buf, 0)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// parseAdvice converts request advice strings into a dense assignment.
// Non-bit characters are a malformed request (400); a wrong node count is
// corrupt advice (422) — the same distinction the fault layer draws between
// unparseable input and damaged advice.
func parseAdvice(g *graph.Graph, strs []string) (local.Advice, error) {
	if len(strs) != g.N() {
		return nil, fmt.Errorf("advice covers %d nodes, graph has %d: %w",
			len(strs), g.N(), local.ErrAdviceLength)
	}
	advice := make(local.Advice, len(strs))
	for v, str := range strs {
		s, err := bitstr.Parse(str)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_advice", "node %d: %v", v, err)
		}
		advice[v] = s
	}
	return advice, nil
}

// encodeAdvice produces (or recalls) the prover's advice for (graph,
// schema). The LRU's singleflight compute closure consults the persistent
// store before falling back to the engine, so disk-load and compute share
// one singleflight call: a startup stampede of N identical requests loads
// or computes each advice assignment at most once.
func (s *Server) encodeAdvice(sc *schemaEntry, cg *cachedGraph, cached bool, src string) (*adviceArtifact, bool, error) {
	key := adviceKey(sc, cg)
	v, hit, err := s.doCached(key, cached, src, func() (any, int64, error) {
		if cached {
			if advice, ok := s.storeLoadAdvice(key, cg.g); ok {
				return newAdviceArtifact(advice), adviceSize(advice), nil
			}
		}
		s.engineComputes.Add(1)
		encStart := time.Now()
		var advice local.Advice
		var err error
		if sc.EncodeSeeded != nil {
			advice, err = sc.EncodeSeeded(cg.g, cg.seed)
		} else {
			advice, err = sc.Encode(cg.g)
		}
		s.engineComputeNanos.Add(time.Since(encStart).Nanoseconds())
		if err != nil {
			return nil, 0, errf(http.StatusUnprocessableEntity, "unencodable",
				"%s encode on this graph: %v", sc.Name, err)
		}
		if !cached {
			return &adviceArtifact{advice: advice}, adviceSize(advice), nil
		}
		s.storePut(key, persist.KindAdvice, persist.EncodeAdvice(advice))
		return newAdviceArtifact(advice), adviceSize(advice), nil
	})
	if err != nil {
		return nil, false, err
	}
	// The artifact is keyed by the graph's digest but carries its own node
	// count; a decoder must never index past the graph, so the count is
	// checked on every read, hit or miss.
	art := v.(*adviceArtifact)
	if len(art.advice) != cg.g.N() {
		return nil, false, fmt.Errorf("%s advice covers %d nodes, graph has %d: %w",
			sc.Name, len(art.advice), cg.g.N(), local.ErrAdviceLength)
	}
	return art, hit, nil
}

// decodeSolution runs (or recalls) the verified decode of advice on the
// graph. Table-compiled schemas go through a cached eth.Table; either way
// the decoded output is verified against the schema's problem before it is
// cached or returned, so a cached solution is always a valid one. Every
// artifact it caches carries its rendered /v1/decode body; a cache-off
// artifact is the caller's alone, and only a JSON caller renders it.
// advDigest is read only when cached.
func (s *Server) decodeSolution(sc *schemaEntry, cg *cachedGraph, advice local.Advice, advDigest string, cached bool, src string) (*decodeArtifact, bool, error) {
	key := "decode:" + cg.digest + ":" + sc.Name + "@" + sc.Params + ":" + advDigest
	v, hit, err := s.doCached(key, cached, src, func() (any, int64, error) {
		art, err := s.decodeCold(sc, cg, advice, advDigest, cached, src)
		if err != nil {
			return nil, 0, err
		}
		if cached {
			art.render(sc.Name, cg.digest)
		}
		return art, solutionSize(art), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*decodeArtifact), hit, nil
}

func (s *Server) decodeCold(sc *schemaEntry, cg *cachedGraph, advice local.Advice, advDigest string, cached bool, src string) (*decodeArtifact, error) {
	if sc.ValidateAdvice != nil {
		if err := sc.ValidateAdvice(cg.g, advice); err != nil {
			return nil, err
		}
	}
	art := &decodeArtifact{}
	var sol *lcl.Solution
	var stats local.Stats
	if sc.Compile != nil {
		table, err := s.resolveTable(sc, cg, advice, advDigest, cached, src)
		if err != nil {
			return nil, err
		}
		art.tableEntries = len(table.Entries)
		outputs, st, err := table.Run(cg.g, advice)
		if err != nil {
			return nil, fmt.Errorf("%s table decode: %v: %w", sc.Name, err, fault.ErrDetectedCorruption)
		}
		sol = lcl.NewSolution(cg.g)
		for v, out := range outputs {
			label, ok := out.(int)
			if !ok {
				return nil, fmt.Errorf("%s table output for node %d is %T: %w",
					sc.Name, v, out, fault.ErrDetectedCorruption)
			}
			sol.Node[v] = label
		}
		stats = st
	} else {
		var err error
		sol, stats, err = sc.Decode(cg.g, advice)
		if err != nil {
			return nil, fmt.Errorf("%s decode: %v: %w", sc.Name, err, fault.ErrDetectedCorruption)
		}
	}
	if err := lcl.Verify(sc.Problem(cg.g), cg.g, sol); err != nil {
		return nil, fmt.Errorf("%s output failed verification (%v): %w",
			sc.Name, err, fault.ErrDetectedCorruption)
	}
	art.sol = sol
	art.stats = stats
	return art, nil
}

// resolveTable compiles (or recalls) the schema's decoder table for (graph,
// advice), through the same LRU → store → engine layering as encodeAdvice.
// decodeCold, its one caller, resolves it for /v1/decode and /v1/batch.
func (s *Server) resolveTable(sc *schemaEntry, cg *cachedGraph, advice local.Advice, advDigest string, cached bool, src string) (*eth.Table, error) {
	tableKey := tableKey(sc, cg, advDigest)
	tv, _, err := s.doCached(tableKey, cached, src, func() (any, int64, error) {
		if cached {
			if table, ok := s.storeLoadTable(tableKey, sc); ok {
				return table, tableSize(table), nil
			}
		}
		// The compiled decoder reads the advice on the ball engine's
		// workers, beyond the request's recover, so it is checked here
		// whatever the caller checked before.
		if sc.ValidateAdvice != nil {
			if err := sc.ValidateAdvice(cg.g, advice); err != nil {
				return nil, 0, err
			}
		}
		s.engineComputes.Add(1)
		compileStart := time.Now()
		table, err := sc.Compile(cg.g, advice)
		s.engineComputeNanos.Add(time.Since(compileStart).Nanoseconds())
		if err != nil {
			return nil, 0, errf(http.StatusUnprocessableEntity, "uncompilable",
				"%s decoder compilation: %v", sc.Name, err)
		}
		if cached && sc.TableEncode != nil {
			var buf bytes.Buffer
			if err := table.SaveBinary(&buf, sc.TableEncode); err == nil {
				s.storePut(tableKey, persist.KindTable, buf.Bytes())
			}
		}
		return table, tableSize(table), nil
	})
	if err != nil {
		return nil, err
	}
	return tv.(*eth.Table), nil
}

// adviceKey/tableKey build the §7 digest-derived artifact keys. Advice of a
// seed-dependent schema additionally carries the request's graph seed: the
// Moser–Tardos output is a function of (graph, seed), and two seeds must
// never share a cached artifact. Det-mode schemas omit the component — the
// conditional-expectations output is a pure function of the graph, so every
// seed variant of a spec resolves to one key (DESIGN.md decision 12).
func adviceKey(sc *schemaEntry, cg *cachedGraph) string {
	key := "advice:" + cg.digest + ":" + sc.Name + "@" + sc.Params
	if sc.SeedDependent {
		key += fmt.Sprintf(":seed=%d", cg.seed)
	}
	return key
}

func tableKey(sc *schemaEntry, cg *cachedGraph, advDigest string) string {
	return "table:" + cg.digest + ":" + sc.Name + "@" + sc.Params + ":" + advDigest
}

// tableSize estimates a compiled table's footprint: keys plus boxed outputs.
func tableSize(t *eth.Table) int64 {
	size := int64(128)
	for k := range t.Entries {
		size += int64(len(k)) + 64
	}
	return size
}

// EncodeRequest is the body of POST /v1/encode.
type EncodeRequest struct {
	Schema string    `json:"schema"`
	Graph  GraphSpec `json:"graph"`
	Cache  *bool     `json:"cache,omitempty"`
}

// EncodeResponse is its reply.
type EncodeResponse struct {
	Schema      string   `json:"schema"`
	GraphDigest string   `json:"graph_digest"`
	N           int      `json:"n"`
	Advice      []string `json:"advice"`
	TotalBits   int      `json:"total_bits"`
	Holders     int      `json:"holders"`
	Cached      bool     `json:"cached"`
	ElapsedNano int64    `json:"elapsed_nanos"`
}

func (s *Server) handleEncode(ctx context.Context, r *http.Request) (any, error) {
	start := time.Now()
	var req EncodeRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	sc, err := s.resolveSchema(req.Schema)
	if err != nil {
		return nil, err
	}
	cached := s.useCache(req.Cache)
	cg, _, err := s.resolveGraph(req.Graph, cached, "encode")
	if err != nil {
		return nil, err
	}
	adv, hit, err := s.encodeAdvice(sc, cg, cached, "encode")
	if err != nil {
		return nil, err
	}
	return encodeBody(sc.Name, cg.digest, cg.g.N(), adv.advice, hit, time.Since(start).Nanoseconds()), nil
}

// encodeBody renders one request's /v1/encode response, byte for byte
// json.Marshal(EncodeResponse) and a newline (TestEncodeBodyMatchesMarshal
// holds it to that), in one buffer: each node's bits go into the body as
// '0'/'1' text, with no string per node. The body is not cached: nearly
// every encode of a new graph is its first.
func encodeBody(schema, graphDigest string, n int, advice local.Advice, hit bool, elapsedNanos int64) jsonBody {
	name, _ := json.Marshal(schema) // marshaling a string cannot fail
	digest, _ := json.Marshal(graphDigest)
	totalBits, holders := 0, 0
	for _, s := range advice {
		totalBits += s.Len()
		if s.Len() > 0 {
			holders++
		}
	}
	b := make([]byte, 0, 192+len(name)+len(digest)+totalBits+3*len(advice))
	b = append(b, `{"schema":`...)
	b = append(b, name...)
	b = append(b, `,"graph_digest":`...)
	b = append(b, digest...)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"advice":[`...)
	for v, s := range advice {
		if v > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		for i := 0; i < s.Len(); i++ {
			b = append(b, '0'+byte(s.Bit(i)))
		}
		b = append(b, '"')
	}
	b = append(b, `],"total_bits":`...)
	b = strconv.AppendInt(b, int64(totalBits), 10)
	b = append(b, `,"holders":`...)
	b = strconv.AppendInt(b, int64(holders), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, hit)
	b = append(b, `,"elapsed_nanos":`...)
	b = strconv.AppendInt(b, elapsedNanos, 10)
	return append(b, "}\n"...)
}

// DecodeRequest is the body of POST /v1/decode. Advice is optional: when
// omitted the server uses (and caches) the prover's own advice, which is
// the encode-once/decode-many serving path.
type DecodeRequest struct {
	Schema string    `json:"schema"`
	Graph  GraphSpec `json:"graph"`
	Advice []string  `json:"advice,omitempty"`
	Cache  *bool     `json:"cache,omitempty"`
}

// DecodeResponse is its reply. Labels is the per-node output; EdgeLabels is
// present for edge-labeling problems (orientations). Verified is always
// true on a 200: an output that fails verification is reported as a 422,
// never returned as a solution.
type DecodeResponse struct {
	Schema       string `json:"schema"`
	GraphDigest  string `json:"graph_digest"`
	Labels       []int  `json:"labels"`
	EdgeLabels   []int  `json:"edge_labels,omitempty"`
	Rounds       int    `json:"rounds"`
	Messages     int    `json:"messages"`
	Verified     bool   `json:"verified"`
	Cached       bool   `json:"cached"`
	TableEntries int    `json:"table_entries,omitempty"`
	ElapsedNano  int64  `json:"elapsed_nanos"`
}

func (s *Server) handleDecode(ctx context.Context, r *http.Request) (any, error) {
	start := time.Now()
	var req DecodeRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	sc, err := s.resolveSchema(req.Schema)
	if err != nil {
		return nil, err
	}
	cached := s.useCache(req.Cache)
	cg, _, err := s.resolveGraph(req.Graph, cached, "decode")
	if err != nil {
		return nil, err
	}
	var advice local.Advice
	var advDigest string
	if req.Advice != nil {
		if advice, err = parseAdvice(cg.g, req.Advice); err != nil {
			return nil, err
		}
		if cached {
			advDigest = adviceDigest(advice)
		}
	} else {
		adv, _, err := s.encodeAdvice(sc, cg, cached, "decode")
		if err != nil {
			return nil, err
		}
		advice, advDigest = adv.advice, adv.digest
	}
	art, hit, err := s.decodeSolution(sc, cg, advice, advDigest, cached, "decode")
	if err != nil {
		return nil, err
	}
	if !cached {
		art.render(sc.Name, cg.digest)
	}
	return art.response(hit, time.Since(start).Nanoseconds()), nil
}

// VerifyRequest is the body of POST /v1/verify: a candidate labeling to
// check against the schema's problem on the given graph.
type VerifyRequest struct {
	Schema string    `json:"schema"`
	Graph  GraphSpec `json:"graph"`
	Labels []int     `json:"labels,omitempty"`
	Edges  []int     `json:"edge_labels,omitempty"`
	Cache  *bool     `json:"cache,omitempty"`
}

// VerifyResponse is its reply; an invalid labeling is a successful
// verification request (200 with Valid false), not an error.
type VerifyResponse struct {
	Schema      string `json:"schema"`
	GraphDigest string `json:"graph_digest"`
	Problem     string `json:"problem"`
	Valid       bool   `json:"valid"`
	Violation   string `json:"violation,omitempty"`
}

func (s *Server) handleVerify(ctx context.Context, r *http.Request) (any, error) {
	var req VerifyRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	sc, err := s.resolveSchema(req.Schema)
	if err != nil {
		return nil, err
	}
	cg, _, err := s.resolveGraph(req.Graph, s.useCache(req.Cache), "verify")
	if err != nil {
		return nil, err
	}
	g := cg.g
	if req.Labels != nil && len(req.Labels) != g.N() {
		return nil, errf(http.StatusBadRequest, "bad_solution",
			"%d node labels for %d nodes", len(req.Labels), g.N())
	}
	if req.Edges != nil && len(req.Edges) != g.M() {
		return nil, errf(http.StatusBadRequest, "bad_solution",
			"%d edge labels for %d edges", len(req.Edges), g.M())
	}
	sol := lcl.NewSolution(g)
	copy(sol.Node, req.Labels)
	copy(sol.Edge, req.Edges)
	problem := sc.Problem(g)
	resp := &VerifyResponse{
		Schema:      sc.Name,
		GraphDigest: cg.digest,
		Problem:     problem.Name(),
		Valid:       true,
	}
	if err := lcl.Verify(problem, g, sol); err != nil {
		resp.Valid = false
		resp.Violation = err.Error()
	}
	return resp, nil
}

// ExperimentRequest is the body of POST /v1/experiment.
type ExperimentRequest struct {
	ID    string `json:"id"`
	Cache *bool  `json:"cache,omitempty"`
}

// ExperimentResponse is its reply: the experiment's table both structured
// and rendered. The server runs experiments unobserved: observation goes
// through the process-wide obs default collector, which every concurrent
// request's engine runs would report into. `locad exp -summary` and
// `-trace` observe an experiment in a process of its own.
type ExperimentResponse struct {
	ID       string     `json:"id"`
	Title    string     `json:"title"`
	Header   []string   `json:"header"`
	Rows     [][]string `json:"rows"`
	Notes    []string   `json:"notes,omitempty"`
	Rendered string     `json:"rendered"`
	Cached   bool       `json:"cached"`
}

func (s *Server) handleExperiment(ctx context.Context, r *http.Request) (any, error) {
	var req ExperimentRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	run := func() (*ExperimentResponse, error) {
		res, err := harness.RunOne(req.ID, false)
		if err != nil {
			if strings.Contains(err.Error(), "unknown experiment") {
				return nil, errf(http.StatusNotFound, "unknown_experiment", "%v", err)
			}
			return nil, err
		}
		var sb strings.Builder
		res.Table.Render(&sb)
		return &ExperimentResponse{
			ID:       res.Table.ID,
			Title:    res.Table.Title,
			Header:   res.Table.Header,
			Rows:     res.Table.Rows,
			Notes:    res.Table.Notes,
			Rendered: sb.String(),
		}, nil
	}
	if !s.useCache(req.Cache) {
		s.bypasses["experiment"].Add(1)
		return run()
	}
	key := "exp:" + strings.ToUpper(req.ID)
	v, hit, err := s.cache.Do(key, func() (any, int64, error) {
		resp, err := run()
		if err != nil {
			return nil, 0, err
		}
		return resp, int64(len(resp.Rendered))*4 + 256, nil
	})
	if err != nil {
		return nil, err
	}
	resp := *v.(*ExperimentResponse) // shallow copy so Cached stays per-request
	resp.Cached = hit
	return &resp, nil
}

// FlushResponse is the reply of POST /v1/cache/flush.
type FlushResponse struct {
	Flushed    bool   `json:"flushed"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleFlush(ctx context.Context, r *http.Request) (any, error) {
	s.cache.Flush()
	return &FlushResponse{Flushed: true, Generation: s.cache.Stats().Generation}, nil
}

// HealthzResponse is the reply of GET /v1/healthz.
type HealthzResponse struct {
	Status      string `json:"status"`
	UptimeNanos int64  `json:"uptime_nanos"`
	Inflight    int64  `json:"inflight"`
}

func (s *Server) handleHealthz() any {
	return &HealthzResponse{
		Status:      "ok",
		UptimeNanos: time.Since(s.start).Nanoseconds(),
		Inflight:    s.inflight.Load(),
	}
}

// StatsResponse is the reply of GET /v1/stats: the serving layer's
// operational counters, scraped by `locad loadgen -json`, serve-smoke and
// perfbench's timed windows.
type StatsResponse struct {
	UptimeNanos  int64                           `json:"uptime_nanos"`
	Inflight     int64                           `json:"inflight"`
	MaxInflight  int                             `json:"max_inflight"`
	Shed         uint64                          `json:"shed"`
	Bypasses     uint64                          `json:"cache_bypasses"`
	BypassesBy   map[string]uint64               `json:"cache_bypasses_by_endpoint"`
	Cache        cache.Stats                     `json:"cache"`
	CacheHitRate float64                         `json:"cache_hit_rate"`
	StoreDir     string                          `json:"store_dir,omitempty"`
	Store        *obs.StoreSnapshot              `json:"store,omitempty"`
	Engine       uint64                          `json:"engine_computes"`
	EngineNanos  int64                           `json:"engine_compute_nanos"`
	BatchItems   uint64                          `json:"batch_items"`
	Endpoints    map[string]obs.EndpointSnapshot `json:"endpoints"`
	Schemas      []string                        `json:"schemas"`
}

func (s *Server) handleStats() any {
	cs := s.cache.Stats()
	eps := make(map[string]obs.EndpointSnapshot, len(s.metrics))
	for name, m := range s.metrics {
		eps[name] = m.Snapshot()
	}
	byEndpoint := make(map[string]uint64, len(s.bypasses))
	var total uint64
	for name, c := range s.bypasses {
		n := c.Load()
		byEndpoint[name] = n
		total += n
	}
	resp := &StatsResponse{
		UptimeNanos:  time.Since(s.start).Nanoseconds(),
		Inflight:     s.inflight.Load(),
		MaxInflight:  s.cfg.MaxInflight,
		Shed:         s.shed.Load(),
		Bypasses:     total,
		BypassesBy:   byEndpoint,
		Cache:        cs,
		CacheHitRate: cs.HitRate(),
		StoreDir:     s.cfg.StoreDir,
		Engine:       s.engineComputes.Load(),
		EngineNanos:  s.engineComputeNanos.Load(),
		BatchItems:   s.batchItems.Load(),
		Endpoints:    eps,
		Schemas:      schemaNames(s.schemas),
	}
	if s.storeMetrics != nil {
		snap := s.storeMetrics.Snapshot()
		resp.Store = &snap
	}
	return resp
}
