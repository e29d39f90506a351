package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestAdviceKeySeedComponent pins the cache-key contract of DESIGN.md
// decision 12: a seed-dependent schema's advice key carries the request's
// graph seed, a det-mode schema's key does not — so det artifacts are
// shared across every seed variant of a spec.
func TestAdviceKeySeedComponent(t *testing.T) {
	schemas := buildSchemas()
	cgA := &cachedGraph{digest: "d1", seed: 7}
	cgB := &cachedGraph{digest: "d1", seed: 8}

	seeded := schemas["orientlll"]
	if !seeded.SeedDependent || seeded.EncodeSeeded == nil {
		t.Fatalf("orientlll must be seed-dependent with EncodeSeeded set")
	}
	kA, kB := adviceKey(seeded, cgA), adviceKey(seeded, cgB)
	if kA == kB {
		t.Errorf("seeded advice keys collide across seeds: %q", kA)
	}
	if !strings.HasSuffix(kA, ":seed=7") {
		t.Errorf("seeded key %q does not carry its seed component", kA)
	}

	det := schemas["orientdet"]
	if det.SeedDependent || det.EncodeSeeded != nil {
		t.Fatalf("orientdet must be seedless with plain Encode")
	}
	kA, kB = adviceKey(det, cgA), adviceKey(det, cgB)
	if kA != kB {
		t.Errorf("det advice keys differ across seeds: %q vs %q", kA, kB)
	}
	if strings.Contains(kA, "seed=") {
		t.Errorf("det key %q carries a seed component", kA)
	}

	// The two methods never share artifacts either: Params differ.
	if adviceKey(seeded, cgA) == adviceKey(det, cgA) {
		t.Errorf("mt and det schemas share an advice key")
	}
}

// TestDetModeWarmHitContrast measures the operational payoff of the
// seedless keys: under requests whose graph spec rotates the seed (on a
// family that ignores it — the cycle generator is seed-free, so every
// request resolves to one graph digest), the det-mode schema serves every
// request after the first from cache, while the seeded schema recomputes
// each one.
func TestDetModeWarmHitContrast(t *testing.T) {
	s := newTestServer(t, Config{})

	hits := func(schema string, seeds []int64) int {
		n := 0
		for _, seed := range seeds {
			body := fmt.Sprintf(`{"schema":%q,"graph":{"family":"cycle","n":96,"seed":%d}}`, schema, seed)
			w := doReq(t, s, "POST", "/v1/encode", body)
			if w.Code != 200 {
				t.Fatalf("%s encode seed %d: %d %s", schema, seed, w.Code, w.Body.String())
			}
			var resp EncodeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Cached {
				n++
			}
		}
		return n
	}

	seeds := []int64{1, 2, 3, 4, 5}
	detHits := hits("orientdet", seeds)
	seededHits := hits("orientlll", seeds)
	if detHits != len(seeds)-1 {
		t.Errorf("orientdet warm hits = %d/%d, want every request after the first to hit", detHits, len(seeds))
	}
	if seededHits != 0 {
		t.Errorf("orientlll warm hits = %d/%d, want 0 (every seed is a distinct artifact)", seededHits, len(seeds))
	}
	if detHits <= seededHits {
		t.Errorf("det warm-hit count %d not above seeded %d", detHits, seededHits)
	}

	// Same seed twice is a hit even on the seeded path: the key is stable.
	if n := hits("orientlll", []int64{2, 2}); n != 2 {
		t.Errorf("orientlll repeat-seed hits = %d/2, want 2", n)
	}
}

// TestDetModeDecodeVerifies runs the full decode path of each det-mode
// schema pair and pins that both methods produce verified solutions, and
// that the det schema's advice is identical across request seeds.
func TestDetModeDecodeVerifies(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, schema := range []string{"orientlll", "orientdet", "color3lll", "color3det"} {
		w := doReq(t, s, "POST", "/v1/decode",
			fmt.Sprintf(`{"schema":%q,"graph":{"family":"cycle","n":96,"seed":3}}`, schema))
		if w.Code != 200 {
			t.Fatalf("%s decode: %d %s", schema, w.Code, w.Body.String())
		}
		var resp DecodeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Verified {
			t.Errorf("%s decode not verified", schema)
		}
	}

	advice := func(schema string, seed int64) []string {
		w := doReq(t, s, "POST", "/v1/encode",
			fmt.Sprintf(`{"schema":%q,"graph":{"family":"cycle","n":96,"seed":%d}}`, schema, seed))
		if w.Code != 200 {
			t.Fatalf("%s encode: %d %s", schema, w.Code, w.Body.String())
		}
		var resp EncodeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Advice
	}
	a, b := advice("orientdet", 11), advice("orientdet", 12)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("orientdet advice differs across request seeds")
	}
}

// TestSeedFreeGraphOneEntry pins graph keys to what BuildGraph reads: the
// families that ignore the seed are one resident graph at every seed, the
// seeded ones one per seed, and a seed-dependent schema still makes one
// advice artifact per seed on the shared graph. Keyed with the seed, 16
// mis decodes of cycle-1024 left 16 copies of one graph.
func TestSeedFreeGraphOneEntry(t *testing.T) {
	s := newTestServer(t, Config{})
	count := func(prefix string) int {
		n := 0
		for _, k := range s.cache.Keys() {
			if strings.HasPrefix(k, prefix) {
				n++
			}
		}
		return n
	}
	post := func(schema, family string, seed int) {
		body := fmt.Sprintf(`{"schema":%q,"graph":{"family":%q,"n":1024,"seed":%d}}`, schema, family, seed)
		if w := doReq(t, s, "POST", "/v1/decode", body); w.Code != 200 {
			t.Fatalf("%s on %s seed %d: %d %s", schema, family, seed, w.Code, w.Body)
		}
	}
	for seed := 0; seed < 16; seed++ {
		post("mis", "cycle", seed)
	}
	if got := count("graph:cycle:"); got != 1 {
		t.Errorf("16 seeds of cycle-1024 left %d graph entries, want 1", got)
	}
	for seed := 1; seed <= 2; seed++ {
		post("mis", "regular", seed)
	}
	if got := count("graph:regular:"); got != 2 {
		t.Errorf("2 seeds of regular-1024 left %d graph entries, want 2", got)
	}
	before := count("advice:")
	for seed := 1; seed <= 2; seed++ {
		post("orientlll", "cycle", seed)
	}
	if got := count("advice:") - before; got != 2 {
		t.Errorf("orientlll on cycle-1024 at 2 seeds left %d advice entries, want 2", got)
	}

	// An inline graph is one entry whatever the seed, and a second seed
	// still gets advice of its own: the resident entry does not carry the
	// seed of the request that parsed it.
	var text strings.Builder
	text.WriteString("n 256\n")
	for v := 0; v < 256; v++ {
		fmt.Fprintf(&text, "e %d %d\n", v, (v+1)%256)
	}
	spec, err := json.Marshal(text.String())
	if err != nil {
		t.Fatal(err)
	}
	before = count("advice:")
	for seed := 1; seed <= 2; seed++ {
		body := fmt.Sprintf(`{"schema":"orientlll","graph":{"text":%s,"seed":%d}}`, spec, seed)
		if w := doReq(t, s, "POST", "/v1/decode", body); w.Code != 200 {
			t.Fatalf("orientlll on inline cycle-256 seed %d: %d %s", seed, w.Code, w.Body)
		}
	}
	if got := count("graph:text:"); got != 1 {
		t.Errorf("2 seeds of one inline graph left %d graph entries, want 1", got)
	}
	if got := count("advice:") - before; got != 2 {
		t.Errorf("orientlll on one inline graph at 2 seeds left %d advice entries, want 2", got)
	}
}
