package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"localadvice/internal/obs"
	"localadvice/internal/server"
)

// Shard is one fleet member as the router sees it: a stable name (the
// rendezvous-hash identity — renaming a shard moves its keys) and a base
// URL.
type Shard struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config parameterizes a Router. Shards and Local are required; everything
// else has defaults.
type Config struct {
	// Shards is the fleet, in any order (rendezvous ranking ignores it).
	Shards []Shard
	// Replicas is K, the number of non-owner shards a hot key's artifacts
	// are pushed to (default 1, capped at len(Shards)-1).
	Replicas int
	// HotThreshold is how many cached routed reads a key takes before the
	// router replicates its artifacts (default 8).
	HotThreshold int
	// HealthInterval is the shard health-check period (default 1s).
	HealthInterval time.Duration
	// DisableFallback turns off local compute when no shard is healthy:
	// instead of serving from the embedded server the router answers a
	// typed 503 shard_down.
	DisableFallback bool
	// Local is the embedded server used for graph-independent endpoints
	// (/v1/experiment), for producing authentic error responses to
	// unroutable requests, and as the last-resort compute fallback.
	Local *server.Server
	// Client overrides the forwarding HTTP client (tests inject
	// httptest-backed clients; the default reuses connections per shard).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > len(c.Shards)-1 {
		c.Replicas = len(c.Shards) - 1
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 8
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 32,
				DisableCompression:  true,
			},
		}
	}
	return c
}

// hotEntry tracks one routing key's read count and replication state.
type hotEntry struct {
	schema      string
	spec        server.GraphSpec
	hits        int
	replicated  bool
	replicating bool
	next        uint64 // rotation cursor over owner+replicas once replicated
}

// Router is the cluster front door: an http.Handler exposing the same /v1
// API as a single server, routing by artifact key. Construct with New.
type Router struct {
	cfg     Config
	names   []string
	byName  map[string]Shard
	mux     *http.ServeMux
	metrics obs.ClusterMetrics
	start   time.Time

	healthy map[string]*atomic.Bool

	hotMu sync.Mutex
	hot   map[string]*hotEntry

	generation atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}

	srvMu   sync.Mutex
	httpSrv *http.Server
}

// New returns a ready Router. It fails on an empty fleet, a missing local
// server, or duplicate shard names (rendezvous identity must be unique).
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if cfg.Local == nil {
		return nil, errors.New("cluster: router needs a local server")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		byName:  make(map[string]Shard, len(cfg.Shards)),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		healthy: make(map[string]*atomic.Bool, len(cfg.Shards)),
		hot:     make(map[string]*hotEntry),
		stop:    make(chan struct{}),
	}
	for _, sh := range cfg.Shards {
		if _, dup := rt.byName[sh.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		rt.byName[sh.Name] = sh
		rt.names = append(rt.names, sh.Name)
		b := &atomic.Bool{}
		b.Store(true) // optimistic until the first health check says otherwise
		rt.healthy[sh.Name] = b
	}
	rt.mux.HandleFunc("POST /v1/decode", rt.routeDecode)
	rt.mux.HandleFunc("POST /v1/encode", rt.routeJSON)
	rt.mux.HandleFunc("POST /v1/verify", rt.routeJSON)
	rt.mux.HandleFunc("POST /v1/batch", rt.routeBatch)
	rt.mux.HandleFunc("POST /v1/experiment", rt.serveLocal)
	rt.mux.HandleFunc("POST /v1/cache/flush", rt.handleFlush)
	rt.mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Metrics exposes the router counters (tests assert forwarding and
// replication behavior through the snapshot).
func (rt *Router) Metrics() *obs.ClusterMetrics { return &rt.metrics }

// Serve accepts connections on l until Shutdown, running the shard
// health-check loop alongside. Returns nil after a graceful shutdown. The
// health loop is stopped on every exit path — including a Serve error such
// as a closed or conflicted listener — so an aborted Serve never leaks the
// ticker goroutine.
func (rt *Router) Serve(l net.Listener) error {
	defer rt.Close()
	go rt.healthLoop()
	srv := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	rt.srvMu.Lock()
	rt.httpSrv = srv
	rt.srvMu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Close stops the health-check loop (idempotent, safe before/without
// Serve). It does not drain in-flight requests; use Shutdown for that.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
}

// Shutdown stops the health loop and drains the embedded http.Server.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.Close()
	rt.srvMu.Lock()
	srv := rt.httpSrv
	rt.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.CheckHealth()
		}
	}
}

// CheckHealth probes every shard's /v1/healthz once and updates the healthy
// flags. The serving path also flips a shard unhealthy the moment a forward
// fails, so the loop's job is mostly to bring revived shards back.
func (rt *Router) CheckHealth() {
	for _, sh := range rt.cfg.Shards {
		req, err := http.NewRequest(http.MethodGet, sh.URL+"/v1/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rt.healthy[sh.Name].Store(ok)
	}
}

// HealthyShards returns how many shards the router currently believes are
// alive.
func (rt *Router) HealthyShards() int {
	n := 0
	for _, b := range rt.healthy {
		if b.Load() {
			n++
		}
	}
	return n
}

// candidates returns the shards to try for key, in order: the rendezvous
// ranking, with the head rotated across owner+replicas when the key's
// artifacts are replicated (so warm hot-key reads spread over the replica
// set). Unhealthy shards are skipped. The second result is the owner's name
// (regardless of health), for metrics.
func (rt *Router) candidates(key string) ([]Shard, string) {
	rank := Rank(key, rt.names)
	owner := rank[0]

	rt.hotMu.Lock()
	e := rt.hot[key]
	var rotate uint64
	replicated := false
	if e != nil && e.replicated {
		replicated = true
		rotate = e.next
		e.next++
	}
	rt.hotMu.Unlock()

	order := rank
	if replicated {
		head := len(rank)
		if rt.cfg.Replicas+1 < head {
			head = rt.cfg.Replicas + 1
		}
		order = make([]string, 0, len(rank))
		for i := 0; i < head; i++ {
			order = append(order, rank[(int(rotate)+i)%head])
		}
		order = append(order, rank[head:]...)
	}

	out := make([]Shard, 0, len(order))
	for _, name := range order {
		if rt.healthy[name].Load() {
			out = append(out, rt.byName[name])
		}
	}
	return out, owner
}

// noteServed records the routing outcome for metrics: which shard answered
// and whether that was the owner, a replica serving a hot key, or a
// failover past a dead owner.
func (rt *Router) noteServed(key, owner, served string) {
	rt.metrics.RouteTo(owner)
	if served == owner {
		rt.metrics.Forward()
		return
	}
	rt.hotMu.Lock()
	replicated := rt.hot[key] != nil && rt.hot[key].replicated
	rt.hotMu.Unlock()
	if replicated {
		for _, r := range Replicas(key, rt.names, rt.cfg.Replicas) {
			if r == served {
				rt.metrics.ReplicaHit()
				return
			}
		}
	}
	rt.metrics.Failover()
}

// post sends one inter-node request. A transport-level failure marks the
// shard unhealthy (the health loop revives it later).
func (rt *Router) post(sh Shard, path, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, sh.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.healthy[sh.Name].Store(false)
		rt.metrics.ForwardError()
		return nil, err
	}
	return resp, nil
}

// serveLocal hands the request to the embedded server unchanged —
// graph-independent endpoints and unroutable requests, where the embedded
// server produces the authentic response (including its exact error JSON).
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request) {
	rt.cfg.Local.ServeHTTP(w, r)
}

// localWithBody replays an already-read body through the embedded server.
func (rt *Router) localWithBody(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	rt.cfg.Local.ServeHTTP(w, r2)
}

// fallback answers a request no healthy shard could take: local compute
// unless disabled, else the typed 503 the smoke test and clients key on.
func (rt *Router) fallback(w http.ResponseWriter, r *http.Request, body []byte) {
	if rt.cfg.DisableFallback {
		server.WriteError(w, http.StatusServiceUnavailable, "shard_down",
			"no healthy shard for this key and local fallback is disabled")
		return
	}
	rt.metrics.LocalFallback()
	rt.localWithBody(w, r, body)
}

// proxyResponse copies a shard's reply verbatim: status, content type, body.
func proxyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// routeJSON forwards /v1/encode and /v1/verify bodies verbatim to the
// owning shard; the reply is proxied back untouched, so it is bit-identical
// to a direct request by construction.
func (rt *Router) routeJSON(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteAPIError(w, err)
		return
	}
	var peek struct {
		Graph server.GraphSpec `json:"graph"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	key, err := server.SpecCacheKey(peek.Graph)
	if err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	cands, owner := rt.candidates(key)
	for _, sh := range cands {
		resp, err := rt.post(sh, r.URL.Path, "application/json", body)
		if err != nil {
			continue
		}
		rt.noteServed(key, owner, sh.Name)
		proxyResponse(w, resp)
		return
	}
	rt.fallback(w, r, body)
}

// routeBatch routes a binary batch frame by its header's graph spec and
// forwards the frame verbatim.
func (rt *Router) routeBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteAPIError(w, err)
		return
	}
	schema, spec, cached, err := server.PeekBatchSpec(body)
	if err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	key, err := server.SpecCacheKey(spec)
	if err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	if cached {
		rt.noteHot(key, schema, spec)
	}
	cands, owner := rt.candidates(key)
	for _, sh := range cands {
		resp, err := rt.post(sh, "/v1/batch", "application/octet-stream", body)
		if err != nil {
			continue
		}
		rt.noteServed(key, owner, sh.Name)
		proxyResponse(w, resp)
		return
	}
	rt.fallback(w, r, body)
}

// routeDecode is the hot path: a JSON /v1/decode without inline advice is
// forwarded to its owner as a one-item extended binary batch (zero JSON on
// the inter-node hop) and the DecodeResponse is reconstructed from the
// answer; with inline advice the JSON body is proxied verbatim instead
// (the advice strings would only be re-encoded byte-for-byte).
func (rt *Router) routeDecode(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteAPIError(w, err)
		return
	}
	var req server.DecodeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	key, err := server.SpecCacheKey(req.Graph)
	if err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	cached := req.Cache == nil || *req.Cache
	if cached {
		rt.noteHot(key, req.Schema, req.Graph)
	}

	if req.Advice != nil {
		cands, owner := rt.candidates(key)
		for _, sh := range cands {
			resp, err := rt.post(sh, "/v1/decode", "application/json", body)
			if err != nil {
				continue
			}
			rt.noteServed(key, owner, sh.Name)
			proxyResponse(w, resp)
			return
		}
		rt.fallback(w, r, body)
		return
	}

	frame, err := server.EncodeBatchRequestExt(req.Schema, req.Graph, cached, []server.BatchItem{{}})
	if err != nil {
		rt.localWithBody(w, r, body)
		return
	}
	cands, owner := rt.candidates(key)
	for _, sh := range cands {
		resp, err := rt.post(sh, "/v1/batch", "application/octet-stream", frame)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Header-level failure: the shard's JSON apiError (unknown
			// schema, bad graph, overload) is already exactly what a direct
			// request would have gotten.
			rt.noteServed(key, owner, sh.Name)
			proxyResponse(w, resp)
			return
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rt.healthy[sh.Name].Store(false)
			rt.metrics.ForwardError()
			continue
		}
		digest, results, err := server.DecodeBatchResponseExt(respBody)
		if err != nil || len(results) != 1 {
			rt.healthy[sh.Name].Store(false)
			rt.metrics.ForwardError()
			continue
		}
		rt.noteServed(key, owner, sh.Name)
		res := results[0]
		if res.Err != nil {
			server.WriteError(w, res.Err.Status, res.Err.Code, res.Err.Msg)
			return
		}
		server.WriteJSON(w, http.StatusOK, &server.DecodeResponse{
			Schema:       req.Schema,
			GraphDigest:  digest,
			Labels:       res.Labels,
			EdgeLabels:   res.EdgeLabels,
			Rounds:       res.Rounds,
			Messages:     res.Messages,
			Verified:     true,
			Cached:       res.Cached,
			TableEntries: res.TableEntries,
			ElapsedNano:  time.Since(start).Nanoseconds(),
		})
		return
	}
	rt.fallback(w, r, body)
}

// noteHot bumps a key's read count and kicks off asynchronous replication
// when it crosses the hot threshold. Replication is strictly off the
// request path: the routed read that tripped the threshold does not wait.
func (rt *Router) noteHot(key, schema string, spec server.GraphSpec) {
	if rt.cfg.Replicas <= 0 || len(rt.names) <= 1 {
		return
	}
	rt.hotMu.Lock()
	e := rt.hot[key]
	if e == nil {
		e = &hotEntry{schema: schema, spec: spec}
		rt.hot[key] = e
	}
	e.hits++
	launch := e.hits >= rt.cfg.HotThreshold && !e.replicated && !e.replicating
	if launch {
		e.replicating = true
	}
	rt.hotMu.Unlock()
	if launch {
		go rt.replicate(key, schema, spec)
	}
}

// replicate pulls (schema, graph)'s artifacts from the owner and pushes
// them to every replica. Only a fully successful round marks the key
// replicated (and thereby eligible for rotated reads); any failure leaves
// it retryable on later hits.
func (rt *Router) replicate(key, schema string, spec server.GraphSpec) {
	ok := rt.replicateOnce(key, schema, spec)
	rt.hotMu.Lock()
	if e := rt.hot[key]; e != nil {
		e.replicating = false
		e.replicated = ok
	}
	rt.hotMu.Unlock()
	if ok {
		rt.metrics.Replication()
	} else {
		rt.metrics.ReplicationError()
	}
}

func (rt *Router) replicateOnce(key, schema string, spec server.GraphSpec) bool {
	owner := Owner(key, rt.names)
	reqBody, err := json.Marshal(server.ExportRequest{Schema: schema, Graph: spec})
	if err != nil {
		return false
	}
	resp, err := rt.post(rt.byName[owner], "/v1/artifacts/export", "application/json", reqBody)
	if err != nil {
		return false
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	for _, name := range Replicas(key, rt.names, rt.cfg.Replicas) {
		resp, err := rt.post(rt.byName[name], "/v1/artifacts/import", "application/octet-stream", frame)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
	}
	return true
}

// ClusterFlushResponse is the router's /v1/cache/flush reply: the bumped
// cluster generation plus each shard's own post-flush generation.
type ClusterFlushResponse struct {
	Flushed    bool              `json:"flushed"`
	Generation uint64            `json:"generation"`
	Shards     map[string]uint64 `json:"shard_generations"`
}

// handleFlush fans the flush out to every shard — all of them, health flags
// notwithstanding, because a flush that silently skips a shard would leave
// stale artifacts servable. Any unreachable shard fails the flush with the
// typed 503. The local embedded cache is flushed too, hot-key replication
// state is reset (the artifacts are gone everywhere), and the cluster
// generation is bumped.
func (rt *Router) handleFlush(w http.ResponseWriter, r *http.Request) {
	rt.metrics.FlushFanout()
	gens := make(map[string]uint64, len(rt.cfg.Shards))
	for _, sh := range rt.cfg.Shards {
		resp, err := rt.post(sh, "/v1/cache/flush", "application/json", nil)
		if err != nil {
			server.WriteError(w, http.StatusServiceUnavailable, "shard_down",
				fmt.Sprintf("cluster flush failed: shard %s unreachable: %v", sh.Name, err))
			return
		}
		var fr struct {
			Generation uint64 `json:"generation"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &fr) != nil {
			server.WriteError(w, http.StatusServiceUnavailable, "shard_down",
				fmt.Sprintf("cluster flush failed: shard %s answered %d", sh.Name, resp.StatusCode))
			return
		}
		gens[sh.Name] = fr.Generation
	}
	rt.cfg.Local.Cache().Flush()
	rt.hotMu.Lock()
	rt.hot = make(map[string]*hotEntry)
	rt.hotMu.Unlock()
	gen := rt.generation.Add(1)
	server.WriteJSON(w, http.StatusOK, &ClusterFlushResponse{
		Flushed:    true,
		Generation: gen,
		Shards:     gens,
	})
}

// RouterHealthz is the router's /v1/healthz reply.
type RouterHealthz struct {
	Status        string `json:"status"`
	Role          string `json:"role"`
	Shards        int    `json:"shards"`
	HealthyShards int    `json:"healthy_shards"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, &RouterHealthz{
		Status:        "ok",
		Role:          "router",
		Shards:        len(rt.cfg.Shards),
		HealthyShards: rt.HealthyShards(),
	})
}

// ShardStatus is one fleet row in the router's stats.
type ShardStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// RouterStats is the router's /v1/stats reply; serve-smoke reads its
// healthy_shards after killing a shard.
type RouterStats struct {
	Role          string              `json:"role"`
	UptimeNanos   int64               `json:"uptime_nanos"`
	Shards        int                 `json:"shards"`
	HealthyShards int                 `json:"healthy_shards"`
	Replicas      int                 `json:"replicas"`
	HotThreshold  int                 `json:"hot_threshold"`
	HotKeys       int                 `json:"hot_keys"`
	Generation    uint64              `json:"generation"`
	Fleet         []ShardStatus       `json:"fleet"`
	Cluster       obs.ClusterSnapshot `json:"cluster"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	fleet := make([]ShardStatus, 0, len(rt.cfg.Shards))
	for _, sh := range rt.cfg.Shards {
		fleet = append(fleet, ShardStatus{Name: sh.Name, URL: sh.URL, Healthy: rt.healthy[sh.Name].Load()})
	}
	rt.hotMu.Lock()
	hotKeys := len(rt.hot)
	rt.hotMu.Unlock()
	server.WriteJSON(w, http.StatusOK, &RouterStats{
		Role:          "router",
		UptimeNanos:   time.Since(rt.start).Nanoseconds(),
		Shards:        len(rt.cfg.Shards),
		HealthyShards: rt.HealthyShards(),
		Replicas:      rt.cfg.Replicas,
		HotThreshold:  rt.cfg.HotThreshold,
		HotKeys:       hotKeys,
		Generation:    rt.generation.Load(),
		Fleet:         fleet,
		Cluster:       rt.metrics.Snapshot(),
	})
}
