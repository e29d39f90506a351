package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"localadvice/internal/harness"
)

// TestBatchAllocsPerItemNode bounds the allocations of the whole /v1/batch
// decode path: one 16-item, cache-off, extended frame on cycle-1024 posted
// through ServeHTTP, each item with its own advice (greedy MIS in distinct
// random orders for mis, Moser–Tardos under distinct seeds for the LLL
// schemas). Every item decodes, verifies and renders cold, so the count per
// item per node covers frame parsing, advice decoding, the decoder (the
// compiled table for mis, the ball engine for the LLL schemas), lcl.Verify
// and the response. A failure prints the count before cache-off items
// stopped hashing advice that no cache key reads.
func TestBatchAllocsPerItemNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	const items = 16
	spec := GraphSpec{Family: "cycle", N: 1024, Seed: 1}
	g, err := harness.BuildGraph(spec.Family, spec.N, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	for _, c := range []struct {
		schema string
		bound  float64
		parent float64
	}{
		{"mis", 3.5, 4.28},
		{"orientlll", 3, 2.62},
		{"color3lll", 1.5, 2.27},
	} {
		batch := make([]BatchItem, items)
		for j := range batch {
			if c.schema == "mis" {
				batch[j].Advice = greedyMIS(g, rand.New(rand.NewSource(int64(j))).Perm(g.N()))
				continue
			}
			if batch[j].Advice, err = s.schemas[c.schema].EncodeSeeded(g, int64(j)); err != nil {
				t.Fatalf("%s advice %d: %v", c.schema, j, err)
			}
		}
		frame, err := EncodeBatchRequestExt(c.schema, spec, false, batch)
		if err != nil {
			t.Fatal(err)
		}
		post := func() {
			w := doBin(t, s, "/v1/batch", frame)
			if w.Code != http.StatusOK {
				t.Fatalf("%s frame: HTTP %d: %s", c.schema, w.Code, w.Body)
			}
			_, results, err := DecodeBatchResponseExt(w.Body.Bytes())
			if err != nil {
				t.Fatalf("%s frame: %v", c.schema, err)
			}
			for k, res := range results {
				if res.Err != nil {
					t.Fatalf("%s item %d: %s", c.schema, k, res.Err.Msg)
				}
			}
		}
		post()
		perFrame := testing.AllocsPerRun(3, post)
		perItemNode := perFrame / float64(items*g.N())
		t.Logf("%s: %.0f allocations per frame, %.2f per item per node", c.schema, perFrame, perItemNode)
		if perItemNode > c.bound {
			t.Errorf("%s: %.2f allocations per item per node, want at most %.1f (with the per-item advice digest: %.2f)",
				c.schema, perItemNode, c.bound, c.parent)
		}
	}
}

// TestWarmDecodeAllocs pins the warm /v1/decode path at a constant number
// of allocations, whatever the graph size: once the advice and the decode
// artifact are cached, a request parses its body, looks up three keys and
// copies the artifact's rendered response. Neither the advice digest nor
// the label array may be rebuilt per request.
func TestWarmDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	const bound = 64
	s := newTestServer(t, Config{})
	for _, schema := range []string{"mis", "orient", "color3"} {
		counts := make(map[int]float64)
		for _, n := range []int{1024, 4096} {
			body := fmt.Sprintf(`{"schema":%q,"graph":{"family":"cycle","n":%d}}`, schema, n)
			post := func() {
				r := httptest.NewRequest("POST", "/v1/decode", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Fatalf("%s/cycle-%d: HTTP %d: %s", schema, n, w.Code, w.Body)
				}
			}
			post() // computes and caches every artifact
			counts[n] = testing.AllocsPerRun(50, post)
			t.Logf("%s/cycle-%d: %.0f allocations per warm decode", schema, n, counts[n])
			if counts[n] > bound {
				t.Errorf("%s/cycle-%d: %.0f allocations per warm decode, want at most %d", schema, n, counts[n], bound)
			}
		}
		if counts[1024] != counts[4096] {
			t.Errorf("%s: %.0f allocations per warm decode at cycle-1024 but %.0f at cycle-4096; want the same",
				schema, counts[1024], counts[4096])
		}
	}
}

// TestWarmEncodeAllocs pins the warm /v1/encode path at a constant number of
// allocations, whatever the graph size: once the graph and the advice are
// cached, a request parses its body, looks up two keys and renders the
// advice as bits straight into the response. When the handler built one
// string per node and marshaled them, a warm mis encode made 1,084
// allocations on cycle-1024 and 4,160 on cycle-4096.
func TestWarmEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	const bound = 64
	s := newTestServer(t, Config{})
	for _, schema := range []string{"mis", "orient", "color3"} {
		counts := make(map[int]float64)
		for _, n := range []int{1024, 4096} {
			body := fmt.Sprintf(`{"schema":%q,"graph":{"family":"cycle","n":%d}}`, schema, n)
			post := func() {
				r := httptest.NewRequest("POST", "/v1/encode", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Fatalf("%s/cycle-%d: HTTP %d: %s", schema, n, w.Code, w.Body)
				}
			}
			post() // computes and caches the graph and the advice
			counts[n] = testing.AllocsPerRun(50, post)
			t.Logf("%s/cycle-%d: %.0f allocations per warm encode", schema, n, counts[n])
			if counts[n] > bound {
				t.Errorf("%s/cycle-%d: %.0f allocations per warm encode, want at most %d", schema, n, counts[n], bound)
			}
		}
		if counts[1024] != counts[4096] {
			t.Errorf("%s: %.0f allocations per warm encode at cycle-1024 but %.0f at cycle-4096; want the same",
				schema, counts[1024], counts[4096])
		}
	}
}
