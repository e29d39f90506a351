package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newTestServer constructs a Server, failing the test on a bad Config (the
// only New error is an unusable StoreDir).
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

// doReq drives the server's handler directly (no network) and returns the
// recorded response.
func doReq(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// assertNoLeak fails if a response body looks like a stack trace or other
// internal detail escaping the process.
func assertNoLeak(t *testing.T, body string) {
	t.Helper()
	for _, marker := range []string{"goroutine ", ".go:", "runtime error", "panic:", "internal/server"} {
		if strings.Contains(body, marker) {
			t.Errorf("response body leaks internals (%q): %s", marker, body)
		}
	}
}

// volatileFields matches the two per-request fields of a decode body.
var volatileFields = regexp.MustCompile(`"cached":(true|false)|"elapsed_nanos":[0-9]+`)

// maskVolatile blanks the values of a decode body's "cached" and
// "elapsed_nanos" fields and keeps every other byte as the server wrote it.
func maskVolatile(raw []byte) string {
	return volatileFields.ReplaceAllStringFunc(string(raw), func(m string) string {
		return m[:strings.IndexByte(m, ':')+1] + "_"
	})
}

// errCode extracts the machine-readable error code of an error response.
func errCode(t *testing.T, body string) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not the errorBody shape: %v: %s", err, body)
	}
	return eb.Code
}

// TestEndpointMatrix is the endpoint x request-class table: every API route
// against valid input, malformed JSON, an oversized graph, an unknown
// schema, and fault-corrupted advice, pinning the status code and error
// code of each cell. Every non-2xx body must carry the typed error shape
// and no response may leak stack traces.
func TestEndpointMatrix(t *testing.T) {
	s := newTestServer(t, Config{MaxNodes: 64, MaxBodyBytes: 4096})

	const cycleGraph = `{"family":"cycle","n":12}`
	validLabels := `[1,2,1,2,1,2,1,2,1,2,1,2]`

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string // "" for 2xx
	}{
		// --- valid requests, one per endpoint ---
		{"encode/valid", "POST", "/v1/encode", `{"schema":"mis","graph":` + cycleGraph + `}`, 200, ""},
		{"decode/valid", "POST", "/v1/decode", `{"schema":"mis","graph":` + cycleGraph + `}`, 200, ""},
		{"decode/valid-fault-schema", "POST", "/v1/decode", `{"schema":"color3","graph":{"family":"cycle","n":40}}`, 200, ""},
		{"verify/valid", "POST", "/v1/verify", `{"schema":"mis","graph":` + cycleGraph + `,"labels":` + validLabels + `}`, 200, ""},
		{"experiment/valid", "POST", "/v1/experiment", `{"id":"E2"}`, 200, ""},
		{"flush/valid", "POST", "/v1/cache/flush", `{}`, 200, ""},
		{"healthz/valid", "GET", "/v1/healthz", "", 200, ""},
		{"stats/valid", "GET", "/v1/stats", "", 200, ""},

		// --- malformed JSON ---
		{"encode/malformed-json", "POST", "/v1/encode", `{"schema":`, 400, "bad_json"},
		{"decode/malformed-json", "POST", "/v1/decode", `not json at all`, 400, "bad_json"},
		{"verify/malformed-json", "POST", "/v1/verify", `{"labels":"nope"}`, 400, "bad_json"},
		{"experiment/malformed-json", "POST", "/v1/experiment", ``, 400, "bad_json"},
		{"decode/wrong-type", "POST", "/v1/decode", `{"schema":7}`, 400, "bad_json"},
		{"decode/trailing-garbage", "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":24}} garbage`, 400, "bad_json"},
		{"decode/trailing-object", "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":24}}{"schema":"nope"}`, 400, "bad_json"},
		{"decode/trailing-whitespace", "POST", "/v1/decode", "{\"schema\":\"mis\",\"graph\":{\"family\":\"cycle\",\"n\":24}} \n\t\r\n", 200, ""},
		{"decode/unknown-field", "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":24},"extra":[1,{"x":2}]}`, 200, ""},

		// --- oversized graphs (server bound is 64 nodes) ---
		{"encode/oversized-graph", "POST", "/v1/encode", `{"schema":"mis","graph":{"family":"cycle","n":100000}}`, 413, "graph_too_large"},
		{"decode/oversized-graph", "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":65}}`, 413, "graph_too_large"},
		{"verify/oversized-graph", "POST", "/v1/verify", `{"schema":"mis","graph":{"family":"grid","n":4096}}`, 413, "graph_too_large"},
		{"encode/oversized-inline-graph", "POST", "/v1/encode", `{"schema":"mis","graph":{"text":"n 65\n"}}`, 413, "graph_too_large"},
		{"decode/inline-graph-at-bound", "POST", "/v1/decode", `{"schema":"mis","graph":{"text":"n 64\n"}}`, 200, ""},

		// --- unknown schema ---
		{"encode/unknown-schema", "POST", "/v1/encode", `{"schema":"quantum","graph":` + cycleGraph + `}`, 404, "unknown_schema"},
		{"decode/unknown-schema", "POST", "/v1/decode", `{"schema":"","graph":` + cycleGraph + `}`, 404, "unknown_schema"},
		{"verify/unknown-schema", "POST", "/v1/verify", `{"schema":"misx","graph":` + cycleGraph + `}`, 404, "unknown_schema"},
		{"experiment/unknown-id", "POST", "/v1/experiment", `{"id":"E999"}`, 404, "unknown_experiment"},

		// --- fault-corrupted advice (PR 3 vocabulary: detected, not crashed) ---
		{"decode/advice-wrong-count", "POST", "/v1/decode",
			`{"schema":"mis","graph":` + cycleGraph + `,"advice":["1","0"]}`, 422, "corrupt_advice"},
		{"decode/advice-wrong-width", "POST", "/v1/decode",
			`{"schema":"mis","graph":` + cycleGraph + `,"advice":["11","0","1","0","1","0","1","0","1","0","1","0"]}`, 422, "corrupt_advice"},
		{"decode/advice-breaks-decoder", "POST", "/v1/decode",
			// All-ones advice claims every cycle node is in the MIS; the
			// decoded output fails independence and must be reported as
			// corruption, never returned as a solution.
			`{"schema":"mis","graph":` + cycleGraph + `,"advice":["1","1","1","1","1","1","1","1","1","1","1","1"]}`, 422, "corrupt_advice"},
		{"decode/advice-junk-chars", "POST", "/v1/decode",
			`{"schema":"mis","graph":` + cycleGraph + `,"advice":["x","0","1","0","1","0","1","0","1","0","1","0"]}`, 400, "bad_advice"},

		// --- graph spec and body abuse ---
		{"decode/empty-graph-spec", "POST", "/v1/decode", `{"schema":"mis","graph":{}}`, 400, "bad_graph_spec"},
		{"decode/ambiguous-graph-spec", "POST", "/v1/decode", `{"schema":"mis","graph":{"text":"n 3\ne 0 1\n","family":"cycle","n":4}}`, 400, "bad_graph_spec"},
		{"decode/unknown-family", "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"hypercube","n":16}}`, 400, "bad_graph_spec"},
		{"decode/family-too-small", "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"regular","n":2}}`, 400, "bad_graph_spec"},
		{"decode/bad-graph-text", "POST", "/v1/decode", `{"schema":"mis","graph":{"text":"n 4\ne 0 9\n"}}`, 400, "bad_graph"},
		{"decode/body-too-large", "POST", "/v1/decode", `{"schema":"mis","pad":"` + strings.Repeat("x", 8192) + `"}`, 413, "body_too_large"},
		{"verify/wrong-label-count", "POST", "/v1/verify", `{"schema":"mis","graph":` + cycleGraph + `,"labels":[1,2]}`, 400, "bad_solution"},

		// --- wrong method falls through to the mux ---
		{"encode/wrong-method", "GET", "/v1/encode", "", 405, ""},
		{"unknown-route", "POST", "/v1/nope", `{}`, 404, ""},
		{"removed/artifacts-export", "POST", "/v1/artifacts/export", `{"schema":"mis","graph":` + cycleGraph + `}`, 404, ""},
		{"removed/artifacts-import", "POST", "/v1/artifacts/import", "LAAR", 404, ""},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doReq(t, s, tc.method, tc.path, tc.body)
			body := w.Body.String()
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body: %s)", w.Code, tc.wantStatus, body)
			}
			assertNoLeak(t, body)
			if tc.wantCode != "" {
				if got := errCode(t, body); got != tc.wantCode {
					t.Errorf("error code = %q, want %q (body: %s)", got, tc.wantCode, body)
				}
			}
			if w.Code < 400 || tc.wantCode != "" {
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type = %q, want application/json", ct)
				}
			}
		})
	}

	// After the whole matrix ran, /v1/stats must explain its bypass total as
	// a per-endpoint split covering every pooled endpoint (the split itself
	// is pinned by TestStatsBypassSplit).
	var st StatsResponse
	w := doReq(t, s, "GET", "/v1/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	var sum uint64
	for _, ep := range []string{"encode", "decode", "batch", "verify", "experiment"} {
		n, ok := st.BypassesBy[ep]
		if !ok {
			t.Errorf("stats cache_bypasses_by_endpoint missing %q", ep)
		}
		sum += n
	}
	if st.Bypasses != sum {
		t.Errorf("cache_bypasses = %d, want the by-endpoint sum %d", st.Bypasses, sum)
	}
}

// TestInlineGraphOverBoundAllocatesNothing pins the node bound on inline
// graphs before they are built: a 47-byte body naming 1,048,576 nodes (the
// parser's cap, so not malformed) is refused with the 413 it always got,
// byte for byte, but now at the n line. Parsing first and checking the
// count afterwards allocated 58.8 MB for it, which eight in-flight requests
// could hold at once with no authentication.
func TestInlineGraphOverBoundAllocatesNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"schema":"mis","graph":{"text":"n 1048576\n"}}`
	const want = `{"error":"graph has 1048576 nodes, server bound is 200000","code":"graph_too_large"}` + "\n"
	for _, path := range []string{"/v1/encode", "/v1/decode"} {
		doReq(t, s, "POST", path, body) // the server's own first-request set-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := doReq(t, s, "POST", path, body)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusRequestEntityTooLarge || w.Body.String() != want {
			t.Errorf("%s: HTTP %d %q, want 413 %q", path, w.Code, w.Body, want)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated", path, allocated)
		if allocated >= 1<<20 {
			t.Errorf("%s: the refused request allocated %d bytes, want under 1 MiB", path, allocated)
		}
	}
}

// TestDecodeRoundTrip pins the serving pipeline end to end: encoded advice
// fed back through /v1/decode yields the same verified solution as the
// adviceless decode, and the solution really is an MIS labeling.
func TestDecodeRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":16}}`

	w := doReq(t, s, "POST", "/v1/encode", body)
	if w.Code != 200 {
		t.Fatalf("encode: %d %s", w.Code, w.Body)
	}
	var enc EncodeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &enc); err != nil {
		t.Fatal(err)
	}
	if enc.N != 16 || len(enc.Advice) != 16 || enc.TotalBits != 16 {
		t.Fatalf("encode response shape: %+v", enc)
	}

	advJSON, _ := json.Marshal(enc.Advice)
	w = doReq(t, s, "POST", "/v1/decode",
		`{"schema":"mis","graph":{"family":"cycle","n":16},"advice":`+string(advJSON)+`}`)
	if w.Code != 200 {
		t.Fatalf("decode with explicit advice: %d %s", w.Code, w.Body)
	}
	var dec DecodeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Verified {
		t.Error("decode response not marked verified")
	}
	if dec.TableEntries == 0 {
		t.Error("mis decode did not go through a compiled table")
	}
	if len(dec.Labels) != 16 {
		t.Fatalf("got %d labels", len(dec.Labels))
	}
	for v, l := range dec.Labels {
		if l != 1 && l != 2 {
			t.Errorf("node %d: label %d outside the MIS alphabet", v, l)
		}
		if enc.Advice[v] == "1" && l != 1 || enc.Advice[v] == "0" && l != 2 {
			t.Errorf("node %d: advice %q decoded to %d", v, enc.Advice[v], l)
		}
	}

	// The labeling round-trips through /v1/verify as valid.
	labJSON, _ := json.Marshal(dec.Labels)
	w = doReq(t, s, "POST", "/v1/verify",
		`{"schema":"mis","graph":{"family":"cycle","n":16},"labels":`+string(labJSON)+`}`)
	if w.Code != 200 {
		t.Fatalf("verify: %d %s", w.Code, w.Body)
	}
	var ver VerifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ver); err != nil {
		t.Fatal(err)
	}
	if !ver.Valid || ver.Violation != "" {
		t.Errorf("decoded solution judged invalid: %+v", ver)
	}
}

// TestVerifyRejectsBadLabeling pins that an invalid labeling is a 200 with
// Valid=false and a violation message, not an HTTP error.
func TestVerifyRejectsBadLabeling(t *testing.T) {
	s := newTestServer(t, Config{})
	w := doReq(t, s, "POST", "/v1/verify",
		`{"schema":"mis","graph":{"family":"cycle","n":6},"labels":[1,1,1,1,1,1]}`)
	if w.Code != 200 {
		t.Fatalf("verify: %d %s", w.Code, w.Body)
	}
	var ver VerifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ver); err != nil {
		t.Fatal(err)
	}
	if ver.Valid {
		t.Error("all-ones cycle labeling judged a valid MIS")
	}
	if ver.Violation == "" {
		t.Error("invalid labeling carries no violation message")
	}
	assertNoLeak(t, ver.Violation)
}

// TestCachedDecodeIsBitIdentical pins the cache transparency contract: the
// warm response differs from the cold one only in the values of "cached"
// and "elapsed_nanos", compared on the raw bytes the server wrote.
func TestCachedDecodeIsBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":24}}`
	const coldBody = `{"schema":"mis","graph":{"family":"cycle","n":24},"cache":false}`

	cold := doReq(t, s, "POST", "/v1/decode", coldBody)
	warm1 := doReq(t, s, "POST", "/v1/decode", body)
	warm2 := doReq(t, s, "POST", "/v1/decode", body)
	for _, w := range []*httptest.ResponseRecorder{cold, warm1, warm2} {
		if w.Code != 200 {
			t.Fatalf("decode: %d %s", w.Code, w.Body)
		}
	}
	var c, w2 DecodeResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warm2.Body.Bytes(), &w2); err != nil {
		t.Fatal(err)
	}
	if c.Cached {
		t.Error("cache-bypass request reported a cache hit")
	}
	if !w2.Cached {
		t.Error("second warm request missed the cache")
	}
	want := maskVolatile(cold.Body.Bytes())
	for i, w := range []*httptest.ResponseRecorder{warm1, warm2} {
		if got := maskVolatile(w.Body.Bytes()); got != want {
			t.Errorf("warm response %d differs from cold: %s vs %s", i+1, got, want)
		}
	}
}

// TestRequestTimeout pins the deadline path: a server with an immediate
// deadline answers 504, not a hang or a 500.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w := doReq(t, s, "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":32}}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %s)", w.Code, w.Body)
	}
	if got := errCode(t, w.Body.String()); got != "timeout" {
		t.Errorf("error code = %q, want timeout", got)
	}
}

// TestEncodeSearchBudget pins the color3 prover's fail-closed search. On
// this random 4-regular graph the exact 3-coloring search backtracks
// without end in sight; once it exhausts its budget, /v1/encode answers
// 422 unencodable instead of holding an in-flight slot indefinitely.
func TestEncodeSearchBudget(t *testing.T) {
	s := newTestServer(t, Config{})
	w := doReq(t, s, "POST", "/v1/encode", `{"schema":"color3","graph":{"family":"regular","n":240,"seed":4}}`)
	body := w.Body.String()
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body: %s)", w.Code, body)
	}
	if got := errCode(t, body); got != "unencodable" {
		t.Errorf("error code = %q, want unencodable", got)
	}
	if !strings.Contains(body, "search budget exhausted") {
		t.Errorf("body does not name the exhausted search budget: %s", body)
	}
}

// TestStatsShape pins the /v1/stats fields loadgen, serve-smoke and
// perfbench scrape.
func TestStatsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	doReq(t, s, "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":8}}`)
	doReq(t, s, "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":8}}`)

	w := doReq(t, s, "GET", "/v1/stats", "")
	if w.Code != 200 {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Computes == 0 || st.Cache.Hits == 0 {
		t.Errorf("cache counters empty after warm+cold decode: %+v", st.Cache)
	}
	if st.CacheHitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", st.CacheHitRate)
	}
	ep, ok := st.Endpoints["decode"]
	if !ok {
		t.Fatalf("no decode endpoint metrics: %v", st.Endpoints)
	}
	if ep.Count != 2 || ep.Errors != 0 {
		t.Errorf("decode endpoint counters = %+v, want count 2, errors 0", ep)
	}
	if ep.P50Nanos <= 0 || ep.MaxNanos < ep.P50Nanos {
		t.Errorf("implausible latency stats: %+v", ep)
	}
	if len(st.Schemas) != 9 {
		t.Errorf("schemas = %v, want the 9 registry entries", st.Schemas)
	}
	if st.MaxInflight <= 0 {
		t.Errorf("max_inflight = %d", st.MaxInflight)
	}
}

// TestFlushResetsCache pins that /v1/cache/flush empties the cache and the
// next identical request recomputes.
func TestFlushResetsCache(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":8}}`
	doReq(t, s, "POST", "/v1/decode", body)
	if s.cache.Stats().Entries == 0 {
		t.Fatal("decode cached nothing")
	}
	w := doReq(t, s, "POST", "/v1/cache/flush", `{}`)
	if w.Code != 200 {
		t.Fatalf("flush: %d %s", w.Code, w.Body)
	}
	var fr FlushResponse
	if err := json.Unmarshal(w.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Flushed || fr.Generation == 0 {
		t.Errorf("flush response: %+v", fr)
	}
	if got := s.cache.Stats().Entries; got != 0 {
		t.Errorf("cache holds %d entries after flush", got)
	}
	w = doReq(t, s, "POST", "/v1/decode", body)
	var dec DecodeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Cached {
		t.Error("decode hit the cache right after a flush")
	}
}

// TestExperimentEndpoint pins the /v1/experiment surface: structured table,
// caching, and the never-cache-observed-runs rule.
func TestExperimentEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := doReq(t, s, "POST", "/v1/experiment", `{"id":"e2"}`)
	if w.Code != 200 {
		t.Fatalf("experiment: %d %s", w.Code, w.Body)
	}
	var r1 ExperimentResponse
	if err := json.Unmarshal(w.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if r1.ID != "E2" || len(r1.Rows) == 0 || r1.Rendered == "" {
		t.Fatalf("experiment response shape: id=%q rows=%d", r1.ID, len(r1.Rows))
	}
	if r1.Cached || r1.Summary != nil {
		t.Errorf("first unobserved run: cached=%v summary=%v", r1.Cached, r1.Summary)
	}

	w = doReq(t, s, "POST", "/v1/experiment", `{"id":"E2"}`)
	var r2 ExperimentResponse
	if err := json.Unmarshal(w.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("repeat experiment request missed the cache")
	}

	w = doReq(t, s, "POST", "/v1/experiment", `{"id":"E2","observe":true}`)
	if w.Code != 200 {
		t.Fatalf("observed experiment: %d %s", w.Code, w.Body)
	}
	var r3 ExperimentResponse
	if err := json.Unmarshal(w.Body.Bytes(), &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("observed run served from cache")
	}
	if r3.Summary == nil {
		t.Error("observed run carries no metrics summary")
	}
}

// TestDisabledCache pins that a cache-disabled server still serves
// correctly (singleflight only, nothing retained).
func TestDisabledCache(t *testing.T) {
	s := newTestServer(t, Config{CacheBytes: -1})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":8}}`
	for i := 0; i < 2; i++ {
		w := doReq(t, s, "POST", "/v1/decode", body)
		if w.Code != 200 {
			t.Fatalf("decode %d: %d %s", i, w.Code, w.Body)
		}
		var dec DecodeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Cached {
			t.Errorf("request %d: cache hit on a cache-disabled server", i)
		}
	}
	if got := s.cache.Stats().Entries; got != 0 {
		t.Errorf("disabled cache holds %d entries", got)
	}
}
