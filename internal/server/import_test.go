package server

import (
	"net/http"
	"testing"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/local"
	"localadvice/internal/persist"
)

// probeTimeout is the request deadline of the servers the probe set runs
// against: long enough for any probe on cycle-12, short enough that a
// wedged key shows as a 504 within the test.
const probeTimeout = 2 * time.Second

// probeRequests is the fixed probe set on cycle-12: a decode of mis, orient
// and color3, and an export of mis.
var probeRequests = []struct{ path, body string }{
	{"/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":12}}`},
	{"/v1/decode", `{"schema":"orient","graph":{"family":"cycle","n":12}}`},
	{"/v1/decode", `{"schema":"color3","graph":{"family":"cycle","n":12}}`},
	{"/v1/artifacts/export", `{"schema":"mis","graph":{"family":"cycle","n":12}}`},
}

// assertServerHealthy runs the probe set: every probe must answer below
// 500 without leaking internals, and once they are done no request may be
// left in flight.
func assertServerHealthy(t *testing.T, s *Server) {
	t.Helper()
	for _, p := range probeRequests {
		w := doReq(t, s, "POST", p.path, p.body)
		if w.Code >= 500 {
			t.Errorf("probe %s %s: status %d: %s", p.path, p.body, w.Code, w.Body)
		}
		assertNoLeak(t, w.Body.String())
	}
	assertIdle(t, s)
}

// assertIdle waits for /v1/stats to report no request in flight: a handler
// goroutine releases its slot just after its answer is written.
func assertIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := shardStats0(t, s).Inflight
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// wrongLengthAdviceFrame is a LAAR frame holding one orient advice record
// under the exact advice: key of cycle-12, with 20 node entries. The import
// cannot see the node count (it knows only the graph's digest), so it
// accepts the frame.
func wrongLengthAdviceFrame(t testing.TB, s *Server) []byte {
	t.Helper()
	sc := s.schemas["orient"]
	cg, _, err := s.resolveGraph(GraphSpec{Family: "cycle", N: 12}, false, "test")
	if err != nil {
		t.Fatal(err)
	}
	advice := make(local.Advice, 20)
	for v := range advice {
		advice[v] = bitstr.New(1)
	}
	return encodeArtifactFrame(sc.Name, cg.digest, []artifactRecord{{artifactAdvice, adviceKey(sc, cg), persist.EncodeAdvice(advice)}})
}

// TestImportedAdviceOfWrongLengthIsRefused: after an advice record of the
// wrong length is imported, every request that reads it answers 422
// corrupt_advice (a batch frame answers 200 with the error in its item)
// instead of panicking a decoder and leaving its cache key in flight. With
// two slots, one wedged key used to shed every later request.
func TestImportedAdviceOfWrongLengthIsRefused(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2, RequestTimeout: probeTimeout})
	if w := doBin(t, s, "/v1/artifacts/import", wrongLengthAdviceFrame(t, s)); w.Code != http.StatusOK {
		t.Fatalf("import: %d: %s", w.Code, w.Body)
	}
	const orient12 = `{"schema":"orient","graph":{"family":"cycle","n":12}}`
	for _, req := range []struct{ path, body string }{
		{"/v1/decode", orient12},
		{"/v1/decode", orient12},
		{"/v1/decode", orient12},
		{"/v1/encode", orient12},
	} {
		w := doReq(t, s, "POST", req.path, req.body)
		if w.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s after the import: %d: %s", req.path, w.Code, w.Body)
		} else if code := errCode(t, w.Body.String()); code != "corrupt_advice" {
			t.Errorf("%s after the import: code %q, want corrupt_advice", req.path, code)
		}
	}
	frame, err := EncodeBatchRequest("orient", GraphSpec{Family: "cycle", N: 12}, true, []BatchItem{{}})
	if err != nil {
		t.Fatal(err)
	}
	w := doBin(t, s, "/v1/batch", frame)
	if w.Code != http.StatusOK {
		t.Fatalf("batch after the import: %d: %s", w.Code, w.Body)
	}
	res, err := DecodeBatchResponse(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err == "" {
		t.Fatalf("batch item after the import: %+v, want an error", res)
	}
	assertServerHealthy(t, s)
}
