package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// referenceAdviceDigest is the advice digest as the decode handler first
// computed it: one "0101" string per node, each written to SHA-256 followed
// by a 0 byte. Stored table: keys embed it, so adviceDigest must match it
// byte for byte.
func referenceAdviceDigest(a local.Advice) string {
	h := sha256.New()
	for _, s := range a {
		h.Write([]byte(s.String()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeFor runs a schema's prover the way encodeAdvice does (seed 1 for
// the seed-dependent schemas).
func encodeFor(sc *schemaEntry, spec GraphSpec) (local.Advice, error) {
	g, err := harness.BuildGraph(spec.Family, spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	if sc.EncodeSeeded != nil {
		return sc.EncodeSeeded(g, spec.Seed)
	}
	return sc.Encode(g)
}

// bodyTestSpecs are the graphs every registered schema serves in
// TestDecodeBodyMatchesMarshal and TestAdviceDigestMatchesReference.
var bodyTestSpecs = []GraphSpec{
	{Family: "cycle", N: 60, Seed: 1},
	{Family: "torus", N: 36, Seed: 1},
}

// TestAdviceDigestMatchesReference pins the advice digest, a persisted
// contract (DESIGN.md decision 7): the streamed adviceDigest equals the
// per-node-string reference on every schema's encoder output and on empty,
// one-bit, bufferful and long per-node strings, and one literal fixes the
// bytes themselves.
func TestAdviceDigestMatchesReference(t *testing.T) {
	// SHA-256 of "\x00" "1\x00" "0101\x00", computed outside Go.
	tiny := local.Advice{bitstr.MustParse(""), bitstr.MustParse("1"), bitstr.MustParse("0101")}
	const tinyWant = "d9e17386f8084e0ef2637dbeb5535577df8c9b25d9446570bad1df097f487b82"
	if got := referenceAdviceDigest(tiny); got != tinyWant {
		t.Errorf("reference digest of [\"\" \"1\" \"0101\"] = %s, want %s", got, tinyWant)
	}

	bits := func(n int, rng *rand.Rand) bitstr.String {
		b := make([]int, n)
		for i := range b {
			b[i] = rng.Intn(2)
		}
		return bitstr.New(b...)
	}
	rng := rand.New(rand.NewSource(1))
	cases := map[string]local.Advice{
		"tiny":          tiny,
		"no nodes":      {},
		"one bit":       {bitstr.New(1)},
		"empty strings": make(local.Advice, 300),
		"one long":      {bits(10_000, rng)},
		"bufferful":     {bits(4095, rng), bits(4096, rng), {}, bits(4097, rng)},
	}
	mixed := make(local.Advice, 2000)
	for v := range mixed {
		mixed[v] = bits(rng.Intn(40)*rng.Intn(40), rng)
	}
	cases["mixed lengths"] = mixed

	schemas := buildSchemas()
	for _, name := range schemaNames(schemas) {
		for _, spec := range bodyTestSpecs {
			advice, err := encodeFor(schemas[name], spec)
			if err != nil {
				t.Fatalf("%s on %s-%d: %v", name, spec.Family, spec.N, err)
			}
			cases[fmt.Sprintf("%s/%s-%d", name, spec.Family, spec.N)] = advice
		}
	}
	for name, a := range cases {
		if got, want := adviceDigest(a), referenceAdviceDigest(a); got != want {
			t.Errorf("%s: adviceDigest = %s, reference %s", name, got, want)
		}
	}
}

// marshaledDecode is a /v1/decode body as the handler wrote it before
// decode artifacts carried their rendered response: a DecodeResponse
// filled field by field, passed through json.Marshal, and a newline.
func marshaledDecode(t *testing.T, schema, graphDigest string, art *decodeArtifact, cached bool, elapsed int64) string {
	t.Helper()
	resp := DecodeResponse{
		Schema:       schema,
		GraphDigest:  graphDigest,
		Labels:       art.sol.Node,
		Rounds:       art.stats.Rounds,
		Messages:     art.stats.Messages,
		Verified:     true,
		Cached:       cached,
		TableEntries: art.tableEntries,
		ElapsedNano:  elapsed,
	}
	for _, l := range art.sol.Edge {
		if l != lcl.Unset {
			resp.EdgeLabels = art.sol.Edge
			break
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestDecodeBodyMatchesMarshal is the oracle for the assembled decode body:
// for every registered schema on a cycle and a torus, the raw body of a
// cache-off request, a miss, a hit, and the same with the advice supplied
// in the request, equals json.Marshal of the DecodeResponse built from an
// independently computed decode, with the request's cached and
// elapsed_nanos values, plus a newline.
func TestDecodeBodyMatchesMarshal(t *testing.T) {
	s := newTestServer(t, Config{})
	ref := newTestServer(t, Config{})
	for _, name := range schemaNames(s.schemas) {
		sc := s.schemas[name]
		for _, spec := range bodyTestSpecs {
			label := fmt.Sprintf("%s/%s-%d", name, spec.Family, spec.N)
			specJSON, _ := json.Marshal(spec)
			base := fmt.Sprintf(`{"schema":%q,"graph":%s`, name, specJSON)

			w := doReq(t, s, "POST", "/v1/encode", base+"}")
			if w.Code != 200 {
				t.Fatalf("%s: encode: %d %s", label, w.Code, w.Body)
			}
			var enc EncodeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &enc); err != nil {
				t.Fatal(err)
			}
			advJSON, _ := json.Marshal(enc.Advice)
			inline := base + `,"advice":` + string(advJSON)

			cg, _, err := ref.resolveGraph(spec, false, "decode")
			if err != nil {
				t.Fatal(err)
			}
			advice, err := parseAdvice(cg.g, enc.Advice)
			if err != nil {
				t.Fatal(err)
			}
			art, err := ref.decodeCold(sc, cg, advice, "", false, "decode")
			if err != nil {
				t.Fatalf("%s: reference decode: %v", label, err)
			}

			for _, step := range []struct {
				name, body string
				hit        bool
			}{
				{"server advice, cache off", base + `,"cache":false}`, false},
				{"server advice, miss", base + "}", false},
				{"server advice, hit", base + "}", true},
				// Same advice, so the request's digest finds the same key.
				{"request advice, hit", inline + "}", true},
				{"request advice, cache off", inline + `,"cache":false}`, false},
				{"flush", "", false},
				{"request advice, miss", inline + "}", false},
				{"request advice, hit again", inline + "}", true},
			} {
				if step.name == "flush" {
					doReq(t, s, "POST", "/v1/cache/flush", `{}`)
					continue
				}
				w := doReq(t, s, "POST", "/v1/decode", step.body)
				if w.Code != 200 {
					t.Fatalf("%s, %s: %d %s", label, step.name, w.Code, w.Body)
				}
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s, %s: Content-Type %q", label, step.name, ct)
				}
				var got DecodeResponse
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
					t.Fatalf("%s, %s: %v", label, step.name, err)
				}
				if got.Cached != step.hit {
					t.Errorf("%s, %s: cached = %v, want %v", label, step.name, got.Cached, step.hit)
				}
				want := marshaledDecode(t, name, cg.digest, art, got.Cached, got.ElapsedNano)
				if body := w.Body.String(); body != want {
					t.Errorf("%s, %s: body differs from json.Marshal(DecodeResponse)\n got: %.300s\nwant: %.300s",
						label, step.name, body, want)
				}
			}
		}
	}
}

// TestAppendJSONIntsMatchesMarshal covers the label arrays no served graph
// produces: nil (null) and empty ([]).
func TestAppendJSONIntsMatchesMarshal(t *testing.T) {
	for _, labels := range [][]int{nil, {}, {-1, 0, 2}, {1 << 40, -(1 << 40)}} {
		want, _ := json.Marshal(labels)
		if got := string(appendJSONInts(nil, labels)); got != string(want) {
			t.Errorf("appendJSONInts(%#v) = %s, json.Marshal %s", labels, got, want)
		}
	}
}

// TestEncodeBodyMatchesMarshal is the oracle for the rendered encode body:
// for every registered schema on a cycle, a torus and a one-node inline
// graph, the raw body of a cache-off request, a miss and a hit equals
// json.Marshal of the EncodeResponse built from an independently run
// prover, with one String() per node as the advice and the request's cached
// and elapsed_nanos values, plus a newline.
func TestEncodeBodyMatchesMarshal(t *testing.T) {
	s := newTestServer(t, Config{})
	specs := append(slices.Clone(bodyTestSpecs), GraphSpec{Text: "n 1\n"})
	for _, name := range schemaNames(s.schemas) {
		sc := s.schemas[name]
		for _, spec := range specs {
			label := fmt.Sprintf("%s/%s-%d", name, spec.Family, spec.N)
			var g *graph.Graph
			var err error
			if spec.Text != "" {
				label = name + "/inline"
				g, err = graph.ReadEdgeList(strings.NewReader(spec.Text))
			} else {
				g, err = harness.BuildGraph(spec.Family, spec.N, spec.Seed)
			}
			if err != nil {
				t.Fatal(err)
			}
			var advice local.Advice
			if sc.EncodeSeeded != nil {
				advice, err = sc.EncodeSeeded(g, spec.Seed)
			} else {
				advice, err = sc.Encode(g)
			}
			specJSON, _ := json.Marshal(spec)
			base := fmt.Sprintf(`{"schema":%q,"graph":%s`, name, specJSON)
			for _, step := range []struct {
				name, body string
				hit        bool
			}{
				{"cache off", base + `,"cache":false}`, false},
				{"miss", base + "}", false},
				{"hit", base + "}", true},
				{"cache off after a hit", base + `,"cache":false}`, false},
				{"flush", "", false},
				{"miss after a flush", base + "}", false},
			} {
				if step.name == "flush" {
					doReq(t, s, "POST", "/v1/cache/flush", `{}`)
					continue
				}
				w := doReq(t, s, "POST", "/v1/encode", step.body)
				if err != nil {
					if w.Code == http.StatusOK {
						t.Errorf("%s, %s: 200, but the prover fails: %v", label, step.name, err)
					}
					continue
				}
				if w.Code != http.StatusOK {
					t.Fatalf("%s, %s: %d %s", label, step.name, w.Code, w.Body)
				}
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s, %s: Content-Type %q", label, step.name, ct)
				}
				var got EncodeResponse
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
					t.Fatalf("%s, %s: %v", label, step.name, err)
				}
				if got.Cached != step.hit {
					t.Errorf("%s, %s: cached = %v, want %v", label, step.name, got.Cached, step.hit)
				}
				resp := EncodeResponse{
					Schema:      name,
					GraphDigest: g.Digest(),
					N:           g.N(),
					Advice:      make([]string, len(advice)),
					TotalBits:   advice.TotalBits(),
					Holders:     len(advice.BitHolders()),
					Cached:      got.Cached,
					ElapsedNano: got.ElapsedNano,
				}
				for v, a := range advice {
					resp.Advice[v] = a.String()
				}
				want, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				if body := w.Body.String(); body != string(want)+"\n" {
					t.Errorf("%s, %s: body differs from json.Marshal(EncodeResponse)\n got: %.300s\nwant: %.300s",
						label, step.name, body, want)
				}
			}
		}
	}
}
