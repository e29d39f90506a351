// Package server is the serving layer of the reproduction: an HTTP/JSON API
// over the advice-schema substrate, turning the one-shot CLI pipeline into
// the encode-once/decode-many system the ROADMAP's north star asks for.
//
// Endpoints (all bodies JSON):
//
//	POST /v1/encode      graph spec + schema  -> per-node advice bits
//	POST /v1/decode      graph + schema [+ advice] -> verified solution
//	POST /v1/verify      graph + schema + labeling -> verdict
//	POST /v1/experiment  experiment ID -> rendered table (+ metrics summary)
//	POST /v1/cache/flush drop every cached artifact (bumps the generation)
//	GET  /v1/healthz     liveness
//	GET  /v1/stats       cache, shedding and per-endpoint latency counters
//
// Requests flow through a bounded in-flight pool: beyond MaxInflight the
// server sheds load with 429 instead of queueing unboundedly, and every
// admitted request runs under a deadline (504 on expiry). Expensive
// artifacts — parsed graphs with CSR snapshots, encoded advice, decoded
// solutions, compiled eth.Tables — are memoized in an internal/cache LRU
// keyed by (graph digest, schema@params, advice digest), with singleflight
// deduplication so a thundering herd of identical requests computes once.
// Error responses are always typed JSON ({"error", "code"}) derived from
// the robustness layer's sentinel errors; stack traces never leave the
// process.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"localadvice/internal/cache"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/persist"
)

// Config parameterizes a Server. The zero value means "use defaults".
type Config struct {
	// CacheBytes bounds the artifact cache (default 64 MiB; <= -1 disables
	// caching entirely, 0 means default).
	CacheBytes int64
	// MaxInflight bounds concurrently executing requests; beyond it the
	// server sheds with 429 (default 4 x GOMAXPROCS).
	MaxInflight int
	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxNodes bounds accepted graph sizes, parsed or generated
	// (default 200k nodes).
	MaxNodes int
	// StoreDir, when non-empty, backs the LRU with a persistent artifact
	// store (internal/persist) in that directory: encoded advice and
	// compiled eth.Tables are written through to disk and reloaded on cache
	// misses, so evictions and process restarts warm-start instead of
	// re-running the engine (DESIGN.md §8).
	StoreDir string
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // cache.New treats <= 0 as storage disabled
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 200_000
	}
	return c
}

// Server is the HTTP serving layer. Construct with New; it implements
// http.Handler.
type Server struct {
	cfg     Config
	cache   *cache.Cache
	store   *persist.Store // nil without Config.StoreDir
	schemas map[string]*schemaEntry
	mux     *http.ServeMux
	sem     chan struct{}
	start   time.Time

	inflight atomic.Int64
	shed     atomic.Uint64
	// bypasses counts cache-bypassing computations, split by the endpoint
	// that asked for them (cold loadgen traffic is "decode"; verify and
	// experiment traffic is labeled distinctly so /v1/stats explains the
	// total instead of lumping it).
	bypasses map[string]*atomic.Uint64
	// engineComputes counts artifacts produced by actually running the
	// engine (advice encodes, table compilations) as opposed to loading
	// them from the store: the restart smoke asserts it stays 0 after a
	// warm-started process serves its first request.
	engineComputes atomic.Uint64
	// engineComputeNanos is the wall time spent inside those engine runs;
	// against the store's load_nanos it prices cold-start recovery (disk
	// load) vs recompute.
	engineComputeNanos atomic.Int64
	batchItems         atomic.Uint64

	storeMetrics *obs.StoreMetrics

	metrics map[string]*obs.EndpointMetrics

	srvMu   sync.Mutex
	httpSrv *http.Server
}

// New returns a ready Server. The only failure mode is an unusable
// Config.StoreDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    cache.New(cfg.CacheBytes),
		schemas:  buildSchemas(),
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxInflight),
		start:    time.Now(),
		metrics:  make(map[string]*obs.EndpointMetrics),
		bypasses: make(map[string]*atomic.Uint64),
	}
	if cfg.StoreDir != "" {
		s.storeMetrics = &obs.StoreMetrics{}
		store, err := persist.Open(cfg.StoreDir, s.storeMetrics)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	for _, name := range []string{"encode", "decode", "batch", "verify", "experiment", "flush", "healthz", "stats"} {
		s.metrics[name] = &obs.EndpointMetrics{}
		s.bypasses[name] = &atomic.Uint64{}
	}
	s.mux.HandleFunc("POST /v1/encode", s.endpoint("encode", s.handleEncode))
	s.mux.HandleFunc("POST /v1/decode", s.endpoint("decode", s.handleDecode))
	s.mux.HandleFunc("POST /v1/batch", s.endpoint("batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/verify", s.endpoint("verify", s.handleVerify))
	s.mux.HandleFunc("POST /v1/experiment", s.endpoint("experiment", s.handleExperiment))
	s.mux.HandleFunc("POST /v1/cache/flush", s.endpoint("flush", s.handleFlush))
	s.mux.HandleFunc("GET /v1/healthz", s.direct("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/stats", s.direct("stats", s.handleStats))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve accepts connections on l until Shutdown. It returns nil after a
// graceful shutdown (http.ErrServerClosed is swallowed).
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	s.srvMu.Lock()
	s.httpSrv = srv
	s.srvMu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the embedded http.Server: new connections are refused,
// in-flight requests run to completion (or ctx expiry).
func (s *Server) Shutdown(ctx context.Context) error {
	s.srvMu.Lock()
	srv := s.httpSrv
	s.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// apiError is an error with a fixed HTTP status and machine-readable code;
// every handler failure is normalized into one before it is written.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// toAPIError maps a handler error onto the API's status/code vocabulary
// using the robustness layer's typed sentinels. Anything unrecognized is an
// opaque 500: internal details (and in particular stack traces) never reach
// the response body.
func toAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return errf(http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds %d bytes", mbe.Limit)
	case errors.Is(err, graph.ErrParse), errors.Is(err, graph.ErrBadEdge),
		errors.Is(err, graph.ErrBadID), errors.Is(err, graph.ErrBadSize):
		return errf(http.StatusBadRequest, "bad_graph", "%v", err)
	case errors.Is(err, fault.ErrDetectedCorruption), errors.Is(err, local.ErrAdviceLength):
		return errf(http.StatusUnprocessableEntity, "corrupt_advice", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return errf(http.StatusGatewayTimeout, "timeout", "request timed out")
	}
	var se *json.SyntaxError
	var ute *json.UnmarshalTypeError
	if errors.As(err, &se) || errors.As(err, &ute) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errf(http.StatusBadRequest, "bad_json", "malformed JSON request: %v", err)
	}
	return errf(http.StatusInternalServerError, "internal", "internal error")
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// jsonBody is a response already rendered as JSON, trailing newline
// included: writeJSON writes it as it is instead of marshaling. The decode
// and encode handlers answer with one (decodeArtifact.response, encodeBody).
type jsonBody []byte

// frameBody is a binary response frame: serveOne writes it as an octet
// stream. The batch handler answers with one (handleBatch).
type frameBody []byte

func writeJSON(w http.ResponseWriter, status int, v any) int {
	data, rendered := v.(jsonBody)
	if !rendered {
		var err error
		if data, err = json.Marshal(v); err != nil {
			// Marshaling our own response types cannot fail; keep the
			// contract anyway without leaking the error.
			status = http.StatusInternalServerError
			data = []byte(`{"error":"internal error","code":"internal"}`)
		}
		data = append(data, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	return status
}

func writeError(w http.ResponseWriter, ae *apiError) int {
	return writeJSON(w, ae.status, errorBody{Error: ae.msg, Code: ae.code})
}

// handlerFunc is a pooled endpoint's compute function.
type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// endpoint wraps a handler with the serving policy: load shedding at the
// in-flight bound, body-size limiting, a per-request deadline, panic
// containment, and latency metering. Header-level failures of the binary
// batch endpoint are JSON apiErrors like every other endpoint's; its
// per-item failures travel in-band.
func (s *Server) endpoint(name string, h handlerFunc) http.HandlerFunc {
	m := s.metrics[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := s.serveOne(w, r, h)
		m.Observe(time.Since(start), status >= 400)
	}
}

// direct wraps the cheap read-only endpoints (healthz, stats) that bypass
// the worker pool so they stay responsive under saturation.
func (s *Server) direct(name string, h func() any) http.HandlerFunc {
	m := s.metrics[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := writeJSON(w, http.StatusOK, h())
		m.Observe(time.Since(start), status >= 400)
	}
}

func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, h handlerFunc) int {
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		return writeError(w, errf(http.StatusTooManyRequests, "overloaded",
			"server at its in-flight request bound (%d); retry later", s.cfg.MaxInflight))
	}
	s.inflight.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	type result struct {
		v   any
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				// A panicking decoder is a server bug, not client data: map
				// it to an opaque 500 and keep the process alive.
				ch <- result{err: errf(http.StatusInternalServerError, "internal", "internal error")}
			}
			s.inflight.Add(-1)
			<-s.sem
		}()
		v, err := h(ctx, r)
		ch <- result{v, err}
	}()

	select {
	case res := <-ch:
		if res.err != nil {
			return writeError(w, toAPIError(res.err))
		}
		if frame, ok := res.v.(frameBody); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(frame)
			return http.StatusOK
		}
		return writeJSON(w, http.StatusOK, res.v)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return writeError(w, errf(http.StatusGatewayTimeout, "timeout", "request timed out"))
		}
		// Client went away; the status is for metrics only.
		return 499
	}
}

// decodeBody parses the JSON request body into dst. The body is one JSON
// object: anything but whitespace after it is malformed (400), as
// json.Unmarshal judges it. Unknown fields are accepted.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return errf(http.StatusBadRequest, "bad_json", "malformed JSON request: data after the request object")
	}
	return nil
}

func sha256hex(parts ...string) string {
	h := sha256.New()
	var sep = []byte{0}
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write(sep)
	}
	return hex.EncodeToString(h.Sum(nil))
}
