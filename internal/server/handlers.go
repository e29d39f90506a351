package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
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

// SpecCacheKey maps a graph spec onto its cache key — `graph:text:<sha256>`
// for inline edge lists, `graph:<family>:<n>:<seed>` for generated families
// (DESIGN.md §7). The key is a pure function of the request bytes, so it
// doubles as the cluster tier's routing key: every artifact derived from a
// spec shares this root, and rendezvous-hashing it assigns all of them to
// one owning shard without building the graph (DESIGN.md §9).
func SpecCacheKey(spec GraphSpec) (string, error) {
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
		return fmt.Sprintf("graph:%s:%d:%d", spec.Family, spec.N, spec.Seed), nil
	default:
		return "", errf(http.StatusBadRequest, "bad_graph_spec",
			"graph spec needs either text or family")
	}
}

// cachedGraph is the resident form of a resolved graph: the graph with its
// CSR snapshot prebuilt, plus its digest (the root of every derived cache
// key).
type cachedGraph struct {
	g      *graph.Graph
	digest string
	// seed is the request spec's generator seed (0 for inline edge lists).
	// Seed-dependent schemas fold it into their advice keys; the generated
	// families that ignore their seed (cycle, path, grid, torus) therefore
	// produce one graph digest but many advice artifacts under a seeded
	// schema — and exactly one under a det-mode schema.
	seed int64
}

// decodeArtifact is the resident form of a decode result.
type decodeArtifact struct {
	sol          *lcl.Solution
	stats        local.Stats
	tableEntries int // size of the compiled eth.Table, when one was used
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
	key, err := SpecCacheKey(spec)
	if err != nil {
		return nil, false, err
	}
	var build func() (*graph.Graph, error)
	if spec.Text != "" {
		build = func() (*graph.Graph, error) { return graph.ReadEdgeList(strings.NewReader(spec.Text)) }
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
		// The LRU key is the spec key, which includes the seed, so the
		// cached entry's seed always matches the request that hits it.
		return &cachedGraph{g: g, digest: g.Digest(), seed: spec.Seed}, graphSize(g), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*cachedGraph), hit, nil
}

// graphSize estimates a resident graph's footprint: IDs, adjacency +
// incidence lists, the edge list, and the CSR snapshot.
func graphSize(g *graph.Graph) int64 {
	return 256 + 8*int64(g.N()) + 56*int64(g.M())
}

func adviceSize(a local.Advice) int64 {
	return 64 + 24*int64(len(a)) + int64(a.TotalBits())
}

func solutionSize(sol *lcl.Solution) int64 {
	return 64 + 8*int64(len(sol.Node)+len(sol.Edge))
}

// adviceStrings renders advice as one "0101" string per node.
func adviceStrings(a local.Advice) []string {
	out := make([]string, len(a))
	for v, s := range a {
		out[v] = s.String()
	}
	return out
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
func (s *Server) encodeAdvice(sc *schemaEntry, cg *cachedGraph, cached bool, src string) (local.Advice, bool, error) {
	key := adviceKey(sc, cg)
	v, hit, err := s.doCached(key, cached, src, func() (any, int64, error) {
		if cached {
			if advice, ok := s.storeLoadAdvice(key, cg.g); ok {
				return advice, adviceSize(advice), nil
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
		if cached {
			s.storePut(key, persist.KindAdvice, persist.EncodeAdvice(advice))
		}
		return advice, adviceSize(advice), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(local.Advice), hit, nil
}

// decodeSolution runs (or recalls) the verified decode of advice on the
// graph. Table-compiled schemas go through a cached eth.Table; either way
// the decoded output is verified against the schema's problem before it is
// cached or returned, so a cached solution is always a valid one.
func (s *Server) decodeSolution(sc *schemaEntry, cg *cachedGraph, advice local.Advice, advDigest string, cached bool, src string) (*decodeArtifact, bool, error) {
	key := "decode:" + cg.digest + ":" + sc.Name + "@" + sc.Params + ":" + advDigest
	v, hit, err := s.doCached(key, cached, src, func() (any, int64, error) {
		art, err := s.decodeCold(sc, cg, advice, advDigest, cached, src)
		if err != nil {
			return nil, 0, err
		}
		return art, solutionSize(art.sol), nil
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
// It is shared by the decode path and the artifact-export endpoint of the
// cluster tier, so a replication pull resolves the identical table object a
// decode would.
func (s *Server) resolveTable(sc *schemaEntry, cg *cachedGraph, advice local.Advice, advDigest string, cached bool, src string) (*eth.Table, error) {
	tableKey := tableKey(sc, cg, advDigest)
	tv, _, err := s.doCached(tableKey, cached, src, func() (any, int64, error) {
		if cached {
			if table, ok := s.storeLoadTable(tableKey, sc); ok {
				return table, tableSize(table), nil
			}
		}
		// The advice may be an imported record no decode has checked
		// (export compiles without decoding), and the compiled decoder
		// reads it on the ball engine's workers, beyond the request's
		// recover.
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
	advice, hit, err := s.encodeAdvice(sc, cg, cached, "encode")
	if err != nil {
		return nil, err
	}
	return &EncodeResponse{
		Schema:      sc.Name,
		GraphDigest: cg.digest,
		N:           cg.g.N(),
		Advice:      adviceStrings(advice),
		TotalBits:   advice.TotalBits(),
		Holders:     len(advice.BitHolders()),
		Cached:      hit,
		ElapsedNano: time.Since(start).Nanoseconds(),
	}, nil
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
	if req.Advice != nil {
		advice, err = parseAdvice(cg.g, req.Advice)
		if err != nil {
			return nil, err
		}
	} else {
		advice, _, err = s.encodeAdvice(sc, cg, cached, "decode")
		if err != nil {
			return nil, err
		}
	}
	advDigest := sha256hex(adviceStrings(advice)...)
	art, hit, err := s.decodeSolution(sc, cg, advice, advDigest, cached, "decode")
	if err != nil {
		return nil, err
	}
	resp := &DecodeResponse{
		Schema:       sc.Name,
		GraphDigest:  cg.digest,
		Labels:       art.sol.Node,
		Rounds:       art.stats.Rounds,
		Messages:     art.stats.Messages,
		Verified:     true,
		Cached:       hit,
		TableEntries: art.tableEntries,
		ElapsedNano:  time.Since(start).Nanoseconds(),
	}
	for _, l := range art.sol.Edge {
		if l != lcl.Unset {
			resp.EdgeLabels = art.sol.Edge
			break
		}
	}
	return resp, nil
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
	ID      string `json:"id"`
	Observe bool   `json:"observe,omitempty"`
	Cache   *bool  `json:"cache,omitempty"`
}

// ExperimentResponse is its reply: the experiment's table both structured
// and rendered, plus the obs summary when the run was observed.
type ExperimentResponse struct {
	ID       string       `json:"id"`
	Title    string       `json:"title"`
	Header   []string     `json:"header"`
	Rows     [][]string   `json:"rows"`
	Notes    []string     `json:"notes,omitempty"`
	Rendered string       `json:"rendered"`
	Cached   bool         `json:"cached"`
	Summary  *obs.Summary `json:"summary,omitempty"`
}

func (s *Server) handleExperiment(ctx context.Context, r *http.Request) (any, error) {
	var req ExperimentRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	run := func() (*ExperimentResponse, error) {
		if req.Observe {
			// Observation routes engine metrics through the process-wide
			// default collector; concurrent observed runs would interleave.
			s.expMu.Lock()
			defer s.expMu.Unlock()
		}
		res, err := harness.RunOne(req.ID, req.Observe)
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
			Summary:  res.Summary,
		}, nil
	}
	// Observed runs carry machine-specific metrics and are never cached.
	if req.Observe || !s.useCache(req.Cache) {
		if !req.Observe {
			s.bypasses["experiment"].Add(1)
		}
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
// operational counters, embedded by scripts/bench.sh under the "serve" key
// of BENCH_*.json.
type StatsResponse struct {
	Role         string                          `json:"role"`
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
		Role:         s.cfg.Role,
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
