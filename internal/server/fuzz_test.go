package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/local"
)

// FuzzHandleDecode throws arbitrary bytes at POST /v1/decode in two forms —
// the raw bytes as the whole request body, and the bytes reshaped into the
// advice array of an otherwise well-formed request — and asserts the
// serving contract: the handler never panics, never answers 5xx (arbitrary
// client input is always a client error), and never leaks internals.
//
// The seed corpus below covers every request class the endpoint matrix
// pins, so a plain `go test` replays it as a smoke test.
func FuzzHandleDecode(f *testing.F) {
	// Whole-body seeds.
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":12}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":12},"cache":false}`), []byte("0"))
	f.Add([]byte(`{"schema":"color3","graph":{"family":"cycle","n":40}}`), []byte(""))
	f.Add([]byte(`{"schema":`), []byte("10"))
	f.Add([]byte(`not json`), []byte("xx"))
	f.Add([]byte(``), []byte("\x00\xff"))
	f.Add([]byte(`{"schema":7,"graph":[]}`), []byte("11"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":100000}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"regular","n":-5}}`), []byte("1"))
	f.Add([]byte(`{"schema":"quantum","graph":{"family":"cycle","n":8}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"text":"n 4\ne 0 9\n"}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"text":"garbage"}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":["1","1","1","1","1","1"]}`), []byte("111111"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":[]}`), []byte(""))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":["é","0","1","0","1","0"]}`), []byte("\xc3\xa9"))

	// One server for the whole fuzz process: cheap per-exec, and a shared
	// cache stresses the generation/singleflight logic with hostile input.
	s := newTestServer(f, Config{MaxNodes: 64, MaxBodyBytes: 1 << 16, CacheBytes: 1 << 20})

	f.Fuzz(func(t *testing.T, body []byte, adviceBytes []byte) {
		check := func(kind string, w *httptest.ResponseRecorder) {
			if w.Code >= 500 {
				t.Errorf("%s: status %d on arbitrary input: %s", kind, w.Code, w.Body)
			}
			assertNoLeak(t, w.Body.String())
		}

		// Form 1: the fuzzed bytes are the entire request body.
		check("raw-body", doReq(t, s, "POST", "/v1/decode", string(body)))

		// Form 2: the fuzzed bytes become per-node advice strings of a
		// well-formed request, exercising bitstr parsing, advice-length
		// checks and the decoder's corruption detection.
		adv := make([]string, 0, 8)
		for i := 0; i < len(adviceBytes) && i < 8; i++ {
			adv = append(adv, string(adviceBytes[i:i+1]))
		}
		advJSON, err := json.Marshal(adv)
		if err != nil {
			return // unrepresentable bytes; form 1 already ran
		}
		req := fmt.Sprintf(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":%s}`, advJSON)
		check("advice", doReq(t, s, "POST", "/v1/decode", req))
	})
}

// probeTimeout is the request deadline of the servers the probe set runs
// against: long enough for any probe on cycle-12, short enough that a
// wedged key shows as a 504 within the test.
const probeTimeout = 2 * time.Second

// probeDecodes is the fixed probe set on cycle-12: the /v1/decode bodies
// of mis, orient and color3.
var probeDecodes = []string{
	`{"schema":"mis","graph":{"family":"cycle","n":12}}`,
	`{"schema":"orient","graph":{"family":"cycle","n":12}}`,
	`{"schema":"color3","graph":{"family":"cycle","n":12}}`,
}

// assertServerHealthy runs the probe set: every probe must answer below
// 500 without leaking internals, and once they are done no request may be
// left in flight.
func assertServerHealthy(t *testing.T, s *Server) {
	t.Helper()
	for _, body := range probeDecodes {
		w := doReq(t, s, "POST", "/v1/decode", body)
		if w.Code >= 500 {
			t.Errorf("probe %s: status %d: %s", body, w.Code, w.Body)
		}
		assertNoLeak(t, w.Body.String())
	}
	assertIdle(t, s)
}

// assertIdle waits for the server to report no request in flight: a handler
// goroutine releases its slot just after its answer is written.
func assertIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := s.inflight.Load()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// fuzzServerConfig bounds what one fuzzed frame can ask of a server: small
// graphs, a small body, and the probe set's deadline.
var fuzzServerConfig = Config{MaxNodes: 64, MaxBodyBytes: 1 << 16, CacheBytes: 1 << 20, RequestTimeout: probeTimeout}

// FuzzBatchFrame throws arbitrary LADB frames at POST /v1/batch, which
// needs no authentication, on a fresh server: the batch answers below 500
// and the probe set stays healthy after it. The seeds are EncodeBatchRequest and
// EncodeBatchRequestExt frames with the cache on and off, server and
// inline advice, and an inline graph.
func FuzzBatchFrame(f *testing.F) {
	s := newTestServer(f, fuzzServerConfig)
	cg, _, err := s.resolveGraph(GraphSpec{Family: "cycle", N: 12}, false, "seed")
	if err != nil {
		f.Fatal(err)
	}
	cycle12 := GraphSpec{Family: "cycle", N: 12}
	inline := func(schema string) local.Advice {
		adv, _, err := s.encodeAdvice(s.schemas[schema], cg, false, "seed")
		if err != nil {
			f.Fatal(err)
		}
		return adv.advice
	}
	short := make(local.Advice, 5)
	for v := range short {
		short[v] = bitstr.New(1)
	}
	seeds := []struct {
		schema string
		spec   GraphSpec
		items  []BatchItem
	}{
		{"mis", cycle12, []BatchItem{{}, {}}},
		{"mis", cycle12, []BatchItem{{Advice: inline("mis")}, {}}},
		{"orient", cycle12, []BatchItem{{Advice: inline("orient")}}},
		{"color3", cycle12, []BatchItem{{Advice: inline("color3")}, {Advice: short}}},
		{"orientlll", GraphSpec{Family: "cycle", N: 12, Seed: 3}, []BatchItem{{}}},
		{"mis", GraphSpec{Text: "n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"}, []BatchItem{{}}},
	}
	for _, sd := range seeds {
		for _, cache := range []bool{true, false} {
			for _, enc := range []func(string, GraphSpec, bool, []BatchItem) ([]byte, error){EncodeBatchRequest, EncodeBatchRequestExt} {
				frame, err := enc(sd.schema, sd.spec, cache, sd.items)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(frame)
			}
		}
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		s := newTestServer(t, fuzzServerConfig)
		w := doBin(t, s, "/v1/batch", frame)
		if w.Code >= 500 {
			t.Errorf("batch: status %d: %s", w.Code, w.Body)
		}
		assertNoLeak(t, w.Body.String())
		assertServerHealthy(t, s)
	})
}
