package server

import (
	"net/http"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/local"
)

// TestBatchExtRoundTrip exercises the extended binary batch protocol — the
// form perfbench's batch-decompress workload sends — end to end: frame a
// request, serve it, decode the reply, and check every field against the
// JSON /v1/decode answer for the same graph.
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
