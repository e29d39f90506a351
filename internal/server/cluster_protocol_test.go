package server

import (
	"encoding/binary"
	"net/http"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/local"
	"localadvice/internal/persist"
)

// TestBatchExtRoundTrip exercises the extended binary batch protocol — the
// router's inter-node decode form — end to end: frame a request, serve it,
// decode the reply, and check every field against the JSON /v1/decode
// answer for the same graph.
func TestBatchExtRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := GraphSpec{Family: "cycle", N: 48, Seed: 3}

	frame, err := EncodeBatchRequestExt("mis", spec, true, []BatchItem{{}})
	if err != nil {
		t.Fatalf("EncodeBatchRequestExt: %v", err)
	}
	w := doBin(t, s, "/v1/batch", frame)
	if w.Code != http.StatusOK {
		t.Fatalf("ext batch: %d: %s", w.Code, w.Body)
	}
	digest, results, err := DecodeBatchResponseExt(w.Body.Bytes())
	if err != nil {
		t.Fatalf("DecodeBatchResponseExt: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result, got %d", len(results))
	}
	res := results[0]
	if res.Err != nil {
		t.Fatalf("unexpected item error: %+v", res.Err)
	}

	var dr DecodeResponse
	normalizeResponse(t, doReq(t, s, "POST", "/v1/decode",
		`{"schema":"mis","graph":{"family":"cycle","n":48,"seed":3}}`).Body.Bytes(), &dr)
	if digest != dr.GraphDigest {
		t.Errorf("digest %q != JSON decode digest %q", digest, dr.GraphDigest)
	}
	if got, want := len(res.Labels), len(dr.Labels); got != want {
		t.Fatalf("labels length %d != %d", got, want)
	}
	for i := range res.Labels {
		if res.Labels[i] != dr.Labels[i] {
			t.Fatalf("label[%d] = %d, JSON decode says %d", i, res.Labels[i], dr.Labels[i])
		}
	}
	if res.Rounds != dr.Rounds || res.Messages != dr.Messages || res.TableEntries != dr.TableEntries {
		t.Errorf("stats (%d,%d,%d) != JSON decode (%d,%d,%d)",
			res.Rounds, res.Messages, res.TableEntries, dr.Rounds, dr.Messages, dr.TableEntries)
	}
	if len(res.EdgeLabels) != 0 {
		t.Errorf("mis carries no edge labels, got %v", res.EdgeLabels)
	}

	// An edge-labeling schema must round-trip its edge labels too.
	frame, err = EncodeBatchRequestExt("orient", GraphSpec{Family: "cycle", N: 60, Seed: 3}, true, []BatchItem{{}})
	if err != nil {
		t.Fatalf("EncodeBatchRequestExt: %v", err)
	}
	w = doBin(t, s, "/v1/batch", frame)
	_, results, err = DecodeBatchResponseExt(w.Body.Bytes())
	if err != nil || len(results) != 1 || results[0].Err != nil {
		t.Fatalf("orient ext batch: %v %+v", err, results)
	}
	var or DecodeResponse
	normalizeResponse(t, doReq(t, s, "POST", "/v1/decode",
		`{"schema":"orient","graph":{"family":"cycle","n":60,"seed":3}}`).Body.Bytes(), &or)
	if len(or.EdgeLabels) == 0 || len(results[0].EdgeLabels) != len(or.EdgeLabels) {
		t.Fatalf("orient edge labels: ext %d, JSON %d", len(results[0].EdgeLabels), len(or.EdgeLabels))
	}
	for i := range or.EdgeLabels {
		if results[0].EdgeLabels[i] != or.EdgeLabels[i] {
			t.Fatalf("edge label[%d] differs", i)
		}
	}
}

// TestBatchExtItemError: a corrupt inline advice item in an extended frame
// comes back as a typed per-item error with the same status and code the
// JSON endpoint would use, leaving the frame-level reply a 200.
func TestBatchExtItemError(t *testing.T) {
	s := newTestServer(t, Config{})
	frame, err := EncodeBatchRequestExt("mis", GraphSpec{Family: "cycle", N: 48}, false,
		[]BatchItem{{Advice: local.Advice{bitstr.New(1)}}}) // wrong node count
	if err != nil {
		t.Fatalf("EncodeBatchRequestExt: %v", err)
	}
	w := doBin(t, s, "/v1/batch", frame)
	if w.Code != http.StatusOK {
		t.Fatalf("ext batch with bad item: frame-level %d: %s", w.Code, w.Body)
	}
	_, results, err := DecodeBatchResponseExt(w.Body.Bytes())
	if err != nil || len(results) != 1 {
		t.Fatalf("DecodeBatchResponseExt: %v (%d results)", err, len(results))
	}
	e := results[0].Err
	if e == nil {
		t.Fatalf("corrupt advice item did not error: %+v", results[0])
	}
	if e.Status != http.StatusUnprocessableEntity || e.Code != "corrupt_advice" {
		t.Errorf("want 422 corrupt_advice, got %d %q (%s)", e.Status, e.Code, e.Msg)
	}
}

// TestArtifactExportImport covers the LAAR replication frame: export a
// warm (schema, graph)'s artifacts from one server, import into a second,
// and check the second serves the identical decode without engine work.
func TestArtifactExportImport(t *testing.T) {
	a := newTestServer(t, Config{})
	b := newTestServer(t, Config{})

	const body = `{"schema":"mis","graph":{"family":"cycle","n":48,"seed":3}}`
	direct := doReq(t, a, "POST", "/v1/decode", body)
	if direct.Code != http.StatusOK {
		t.Fatalf("warm decode on a: %d: %s", direct.Code, direct.Body)
	}

	exp := doReq(t, a, "POST", "/v1/artifacts/export", `{"schema":"mis","graph":{"family":"cycle","n":48,"seed":3}}`)
	if exp.Code != http.StatusOK {
		t.Fatalf("export: %d: %s", exp.Code, exp.Body)
	}
	frame := exp.Body.Bytes()
	if len(frame) < 4 || string(frame[:4]) != "LAAR" {
		t.Fatalf("export frame lacks the LAAR magic: % x", frame[:min(8, len(frame))])
	}

	imp := doBin(t, b, "/v1/artifacts/import", frame)
	if imp.Code != http.StatusOK {
		t.Fatalf("import: %d: %s", imp.Code, imp.Body)
	}
	var ir ImportResponse
	normalizeResponse(t, imp.Body.Bytes(), &ir)
	// mis is table-compiled: the frame carries the advice and the table.
	if ir.Imported != 2 || ir.Schema != "mis" {
		t.Errorf("import response off: %+v", ir)
	}

	onB := doReq(t, b, "POST", "/v1/decode", body)
	if onB.Code != http.StatusOK {
		t.Fatalf("decode on b after import: %d: %s", onB.Code, onB.Body)
	}
	var want, got DecodeResponse
	if normalizeResponse(t, onB.Body.Bytes(), &got) != normalizeResponse(t, direct.Body.Bytes(), &want) {
		t.Errorf("imported decode differs:\n b: %s\n a: %s", onB.Body, direct.Body)
	}
	if n := shardEngineComputes(t, b); n != 0 {
		t.Errorf("server b ran %d engine computes; imported artifacts should cover the decode", n)
	}
}

// TestArtifactImportRejectsCorruptFrame: a truncated or doctored LAAR frame
// is refused wholesale with the typed bad_artifact error — a partial import
// must never land.
func TestArtifactImportRejectsCorruptFrame(t *testing.T) {
	a := newTestServer(t, Config{})
	b := newTestServer(t, Config{})
	doReq(t, a, "POST", "/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":48,"seed":3}}`)
	exp := doReq(t, a, "POST", "/v1/artifacts/export", `{"schema":"mis","graph":{"family":"cycle","n":48,"seed":3}}`)
	frame := exp.Body.Bytes()

	cases := map[string][]byte{
		"truncated": frame[:len(frame)-5],
		"bad magic": append([]byte("XXXX"), frame[4:]...),
		"garbage":   []byte("not a frame at all"),
	}
	for name, bad := range cases {
		w := doBin(t, b, "/v1/artifacts/import", bad)
		if w.Code != http.StatusUnprocessableEntity && w.Code != http.StatusBadRequest {
			t.Errorf("%s frame: want 4xx, got %d: %s", name, w.Code, w.Body)
			continue
		}
		if code := errCode(t, w.Body.String()); code != "bad_artifact" {
			t.Errorf("%s frame: want code bad_artifact, got %q", name, code)
		}
		assertNoLeak(t, w.Body.String())
	}
	if n := shardStats0(t, b).Cache.Entries; n != 0 {
		t.Errorf("corrupt imports left %d cache entries behind", n)
	}
}

// TestExportRejectsMisShapedImportedAdvice: an import frame may carry mis
// advice of any shape, since the importer has no graph to check it against.
// An export that then compiles the table from 0-bit advice on cycle-300 must
// answer 422 corrupt_advice. At two engine workers the compile runs on the
// ball engine's goroutines, where a decoder panic would bypass the request
// goroutine's recover and stop the process.
func TestExportRejectsMisShapedImportedAdvice(t *testing.T) {
	local.SetDefaultWorkers(2)
	defer local.SetDefaultWorkers(0)
	s := newTestServer(t, Config{})
	spec := GraphSpec{Family: "cycle", N: 300, Seed: 3}
	cg, _, err := s.resolveGraph(spec, true, "export")
	if err != nil {
		t.Fatal(err)
	}
	sc := s.schemas["mis"]
	key := adviceKey(sc, cg)
	payload := persist.EncodeAdvice(make(local.Advice, cg.g.N()))

	frame := []byte(artifactMagic)
	frame = binary.LittleEndian.AppendUint16(frame, artifactVersion)
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(sc.Name)))
	frame = append(frame, sc.Name...)
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(cg.digest)))
	frame = append(frame, cg.digest...)
	frame = append(frame, 1, artifactAdvice)
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(key)))
	frame = append(frame, key...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	if w := doBin(t, s, "/v1/artifacts/import", frame); w.Code != http.StatusOK {
		t.Fatalf("import: %d: %s", w.Code, w.Body)
	}

	w := doReq(t, s, "POST", "/v1/artifacts/export", `{"schema":"mis","graph":{"family":"cycle","n":300,"seed":3}}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("export over 0-bit advice: want 422, got %d: %s", w.Code, w.Body)
	}
	if code := errCode(t, w.Body.String()); code != "corrupt_advice" {
		t.Errorf("export over 0-bit advice: want code corrupt_advice, got %q", code)
	}
	assertNoLeak(t, w.Body.String())
}

// shardEngineComputes reads a server's engine-compute counter via its own
// stats endpoint.
func shardEngineComputes(t *testing.T, s *Server) uint64 {
	t.Helper()
	return shardStats0(t, s).Engine
}

func shardStats0(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	w := doReq(t, s, "GET", "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d: %s", w.Code, w.Body)
	}
	var st StatsResponse
	normalizeResponse(t, w.Body.Bytes(), &st)
	return st
}

// TestStatsReportsRole: the role wired through Config lands in /v1/stats,
// which is how operators tell a shard from a single-process server.
func TestStatsReportsRole(t *testing.T) {
	for _, role := range []string{"", "shard", "router"} {
		s := newTestServer(t, Config{Role: role})
		body := doReq(t, s, "GET", "/v1/stats", "").Body.String()
		want := role
		if want == "" {
			want = "single"
		}
		if !strings.Contains(body, `"role":"`+want+`"`) {
			t.Errorf("role %q: stats body lacks role %q: %s", role, want, body[:120])
		}
	}
}
