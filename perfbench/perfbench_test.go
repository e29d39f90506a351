package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNames pins the naming contract of BENCHMARK.json: names use only
// [A-Za-z0-9_.-], are unique, and the file lists exactly the workloads and
// metrics the registry defines.
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	var all []metricDef
	all = append(all, endToEnd...)
	all = append(all, perLayer...)
	for _, n := range workloadNames {
		all = append(all, metricDef{Name: n})
	}
	for _, d := range all {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("name %q breaks the naming rule", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, registry %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		reg  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.reg) {
			t.Fatalf("BENCHMARK.json lists %d metrics, registry %d", len(c.file), len(c.reg))
		}
		for i, f := range c.file {
			r := c.reg[i]
			if f.Name != r.Name || f.Unit != r.Unit || f.Better != r.Better {
				t.Errorf("metric %d: BENCHMARK.json %+v, registry %s/%s/%s", i, f, r.Name, r.Unit, r.Better)
			}
		}
	}
}

// TestHighestSupported checks the tail-percentile rule: the highest
// percentile with at least ten samples strictly beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

// TestSelfTimes checks self time on a hand-built trace: children that
// overlap each other count once, and child time outside the parent's
// interval is not subtracted.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a: 10..40 covered
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // only 90..100 inside root
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 0, End: 50}, // another root, no children
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 30 - 10, 2: 20 - 6, 3: 20, 4: 30, 5: 6, 6: 50}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	byName := selfByName(spans)
	if d := byName["a"]; len(d) != 1 || d[0] != time.Duration(14) {
		t.Errorf("selfByName[a] = %v, want [14ns]", d)
	}
}

// streamDigest hashes the request stream a workload would send for seed:
// every body of rounds 0 and 1, with every candidate class live.
func streamDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	h := sha256.New()
	switch workload {
	case wlHotDecode:
		bodies := hotBodies(seed)
		live := identity(len(hotPairs))
		for r := 0; r < 2; r++ {
			for _, conn := range hotRound(seed, r, live, 2) {
				for _, i := range conn {
					h.Write(bodies[i])
				}
			}
		}
	case wlNewGraphs:
		live := ngCandidates()
		tmpl := ngTemplate(live, 2)
		for r := 0; r < 2; r++ {
			rd, err := newNGRound(seed, r, tmpl, live)
			if err != nil {
				t.Fatal(err)
			}
			for _, conn := range rd.reqs {
				for _, rq := range conn {
					h.Write([]byte(rq.path))
					h.Write(rq.body)
				}
			}
		}
	case wlBatch:
		inputs, err := buildBatchInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			pairOf, orders := batchFrames(seed, r, inputs)
			for f, pi := range pairOf {
				rq, err := frameRequest(inputs[pi], orders[f], nil)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(rq.body)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeededStreams pins that a seed fixes the request stream byte for
// byte, and that another seed changes it. The digests of seed 1 are pinned
// too: a change to them changes the benchmark's inputs, which needs a new
// baseline.
func TestSeededStreams(t *testing.T) {
	pinned := map[string]string{
		wlHotDecode: "c2f3cec28b565a8982aec9d62ab4e96e7478ee3c6b2108aa4de529e67332a912",
		wlNewGraphs: "7461c1e234ef8e58cb571bbe429bb5731ef3f0c0da6299135974fe543e10c86a",
		wlBatch:     "6780a7687c790376af855e32a3fea9219b5fcaa0649d44da7c9dfeeaf1e91de3",
	}
	for _, w := range []string{wlHotDecode, wlNewGraphs, wlBatch} {
		a, b := streamDigest(t, w, 1), streamDigest(t, w, 1)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", w)
		}
		if c := streamDigest(t, w, 2); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w)
		}
		if a != pinned[w] {
			t.Errorf("%s: seed-1 stream digest %s, pinned %s", w, a, pinned[w])
		}
	}
}
