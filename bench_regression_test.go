package localadvice_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchReport mirrors the JSON written by scripts/bench.sh.
type benchReport struct {
	Date       string `json:"date"`
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
	Serve struct {
		Batch *struct {
			ItemsPerSecond float64 `json:"items_per_second"`
		} `json:"batch"`
		Restart *struct {
			FirstDecodeNanos     float64 `json:"first_decode_nanos"`
			RecomputeNanos       float64 `json:"recompute_nanos"`
			StoreLoadNanos       float64 `json:"store_load_nanos"`
			EngineComputeNanos   float64 `json:"engine_compute_nanos"`
			RecomputeOverRestart float64 `json:"recompute_over_restart"`
		} `json:"restart"`
	} `json:"serve"`
	Msgred *struct {
		MessageReduction float64 `json:"message_reduction"`
		ByteReduction    float64 `json:"byte_reduction"`
		RoundOverhead    float64 `json:"round_overhead"`
		OutputsMatch     bool    `json:"outputs_match"`
	} `json:"msgred"`
	DetLLL *struct {
		Seeds  int `json:"seeds"`
		Points []struct {
			Schema      string  `json:"schema"`
			Method      string  `json:"method"`
			Resamplings float64 `json:"resamplings"`
			Evaluations float64 `json:"evaluations"`
			Distinct    int     `json:"distinct"`
			Valid       bool    `json:"valid"`
		} `json:"points"`
		Warm []struct {
			Schema        string  `json:"schema"`
			Requests      int     `json:"requests"`
			DetHitRate    float64 `json:"det_hit_rate"`
			SeededHitRate float64 `json:"seeded_hit_rate"`
		} `json:"warm"`
	} `json:"detlll"`
	Cluster *struct {
		CPUs          int     `json:"cpus"`
		ColdScaling4x float64 `json:"cold_scaling_4x"`
		Points        []struct {
			Shards int `json:"shards"`
			Cold   struct {
				RPS    float64 `json:"rps"`
				Errors int     `json:"errors"`
			} `json:"cold"`
			Warm struct {
				RPS    float64 `json:"rps"`
				Errors int     `json:"errors"`
			} `json:"warm"`
			RouterStats struct {
				Cluster struct {
					Forwards     float64 `json:"forwards"`
					ReplicaHits  float64 `json:"replica_hits"`
					Replications float64 `json:"replications"`
				} `json:"cluster"`
			} `json:"router_stats"`
		} `json:"points"`
	} `json:"cluster"`
}

// newestBenchReport loads the lexicographically newest BENCH_*.json in the
// repo root (the filenames embed an ISO date, so name order is date order).
// Returns ok=false when no baseline has been recorded yet.
func newestBenchReport(t *testing.T) (benchReport, string, bool) {
	t.Helper()
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(matches) == 0 {
		return benchReport{}, "", false
	}
	sort.Strings(matches)
	newest := matches[len(matches)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read %s: %v", newest, err)
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("parse %s: %v", newest, err)
	}
	return r, newest, true
}

// bestOf re-runs a benchmark function n times via testing.Benchmark and
// returns the best (lowest) ns/op, discounting scheduling noise the way a
// human reads repeated bench runs.
func bestOf(n int, fn func(*testing.B)) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		r := testing.Benchmark(fn)
		ns := float64(r.NsPerOp())
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestBenchRegression guards the two hot paths the perf PRs optimized —
// view construction and the sharded scheduler — against silent regression:
// it re-times them and fails if the best of three runs is more than 30%
// slower than the newest recorded BENCH_*.json baseline.
//
// The test is opt-in via LOCAD_BENCH_REGRESSION=1 (set by `make check`):
// plain `go test ./...` must stay load-independent, and wall-clock
// comparisons under arbitrary machine load are not.
func TestBenchRegression(t *testing.T) {
	if os.Getenv("LOCAD_BENCH_REGRESSION") != "1" {
		t.Skip("set LOCAD_BENCH_REGRESSION=1 to compare against the recorded baseline (make check does)")
	}
	report, path, ok := newestBenchReport(t)
	if !ok {
		t.Skip("no BENCH_*.json baseline recorded; run scripts/bench.sh first")
	}
	baseline := make(map[string]float64, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		baseline[b.Name] = b.NsPerOp
	}
	const slack = 1.30 // fail only beyond +30%: generous against machine noise
	checks := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkBuildView", BenchmarkBuildView},
		{"BenchmarkEngineScheduler4096", BenchmarkEngineScheduler4096},
	}
	for _, c := range checks {
		want, recorded := baseline[c.name]
		if !recorded || want <= 0 {
			t.Logf("%s: not in baseline %s, skipping", c.name, path)
			continue
		}
		got := bestOf(3, c.fn)
		ratio := got / want
		t.Logf("%s: %.0f ns/op vs baseline %.0f ns/op (%s) — %.2fx", c.name, got, want, path, ratio)
		if ratio > slack {
			t.Errorf("%s regressed: %.0f ns/op is %.0f%% over the %s baseline of %.0f ns/op (threshold +30%%)",
				c.name, got, (ratio-1)*100, path, want)
		}
	}

	// Serving-layer floors: the newest recorded bench run must show the
	// persistent store recovering artifacts on restart at least 10x faster
	// than the engine recomputes them (disk load_nanos vs
	// engine_compute_nanos — the work persistence replaces; the
	// whole-request latencies are recorded alongside but share graph build
	// + table run + verification on both sides), and the binary batch path
	// sustaining at least 100k warm decode items/s — the ISSUE 6 targets.
	// A bench run recorded on a machine where either number slipped below
	// its floor fails the gate.
	if r := report.Serve.Restart; r == nil {
		t.Logf("baseline %s has no \"serve\".restart record; re-run scripts/bench.sh to gate restart recovery", path)
	} else {
		t.Logf("restart recovery: artifact load %.0f ns vs engine recompute %.0f ns — %.1fx (requests: %.0f ns vs %.0f ns) (%s)",
			r.StoreLoadNanos, r.EngineComputeNanos, r.RecomputeOverRestart,
			r.FirstDecodeNanos, r.RecomputeNanos, path)
		if r.RecomputeOverRestart < 10 {
			t.Errorf("restart recovery speedup %.1fx is below the 10x floor (%s)", r.RecomputeOverRestart, path)
		}
	}
	if b := report.Serve.Batch; b == nil {
		t.Logf("baseline %s has no \"serve\".batch record; re-run scripts/bench.sh to gate batch throughput", path)
	} else {
		t.Logf("batch throughput: %.0f items/s (%s)", b.ItemsPerSecond, path)
		if b.ItemsPerSecond < 100_000 {
			t.Errorf("batch throughput %.0f items/s is below the 100k floor (%s)", b.ItemsPerSecond, path)
		}
	}

	// Frugal-engine floors: the recorded 4096-grid flood comparison must
	// show the skeleton simulation cutting transport messages at least 3x
	// at no more than 2x round overhead, with bit-identical outputs — the
	// headline contract of the frugal engine. Byte reduction is logged but
	// not gated (it is workload-shaped; see the E10 gnp row).
	if m := report.Msgred; m == nil {
		t.Logf("baseline %s has no \"msgred\" record; re-run scripts/bench.sh to gate the frugal engine", path)
	} else {
		t.Logf("frugal engine: %.1fx messages, %.1fx bytes at %.2fx rounds, outputs match: %v (%s)",
			m.MessageReduction, m.ByteReduction, m.RoundOverhead, m.OutputsMatch, path)
		if !m.OutputsMatch {
			t.Errorf("recorded msgred run had diverging engine outputs (%s)", path)
		}
		if m.MessageReduction < 3 {
			t.Errorf("frugal message reduction %.1fx is below the 3x floor (%s)", m.MessageReduction, path)
		}
		if m.RoundOverhead > 2 {
			t.Errorf("frugal round overhead %.2fx exceeds the 2x ceiling (%s)", m.RoundOverhead, path)
		}
	}

	// Deterministic-LLL floors — unconditional, no hardware excuse: the
	// derandomized solvers' guarantees are exact, not statistical. Every
	// recorded det/decomposed point must show zero resamplings, exactly one
	// distinct advice output across the swept seeds, and a verified decode;
	// the Moser–Tardos points must also have decoded validly. The warm-cache
	// contrast must show the det-mode schema's hit rate strictly above the
	// seeded schema's (the payoff of the seedless advice keys, DESIGN.md
	// decision 12).
	if dl := report.DetLLL; dl == nil {
		t.Logf("baseline %s has no \"detlll\" record; re-run scripts/bench.sh to gate the deterministic LLL pipeline", path)
	} else {
		if len(dl.Points) == 0 {
			t.Errorf("recorded detlll sweep has no points (%s)", path)
		}
		for _, p := range dl.Points {
			t.Logf("detlll %s/%s: resamp %.2f, evals %.2f, distinct %d/%d seeds, valid %v (%s)",
				p.Schema, p.Method, p.Resamplings, p.Evaluations, p.Distinct, dl.Seeds, p.Valid, path)
			if !p.Valid {
				t.Errorf("detlll %s/%s recorded an unverified decode (%s)", p.Schema, p.Method, path)
			}
			if p.Method == "det" || p.Method == "decomposed" {
				if p.Resamplings != 0 {
					t.Errorf("detlll %s/%s recorded %.2f resamplings; the deterministic path takes none (%s)",
						p.Schema, p.Method, p.Resamplings, path)
				}
				if p.Distinct != 1 {
					t.Errorf("detlll %s/%s recorded %d distinct outputs across seeds; deterministic advice must be seed-independent (%s)",
						p.Schema, p.Method, p.Distinct, path)
				}
			}
		}
		if len(dl.Warm) == 0 {
			t.Errorf("recorded detlll sweep has no warm-cache contrast (%s)", path)
		}
		for _, w := range dl.Warm {
			t.Logf("detlll %s warm: det hit rate %.2f vs seeded %.2f over %d rotating-seed requests (%s)",
				w.Schema, w.DetHitRate, w.SeededHitRate, w.Requests, path)
			if w.DetHitRate <= w.SeededHitRate {
				t.Errorf("detlll %s det-mode warm hit rate %.2f is not above the seeded %.2f (%s)",
					w.Schema, w.DetHitRate, w.SeededHitRate, path)
			}
		}
	}

	// Cluster-tier floors. Aggregate cold scaling is a CPU-parallelism
	// effect, so the gate is hardware-aware (DESIGN.md decision 9): the
	// ≥3x 4-shard cold-throughput floor binds only when the recording host
	// had at least 4 CPUs. On smaller hosts the gate falls back to
	// structural checks the hardware cannot excuse: every sweep point ran
	// error-free, adding shards never collapsed routed throughput below
	// half the single-shard baseline (bounded routing overhead), and the
	// warm phase tripped hot-key replication with replicas taking reads.
	if c := report.Cluster; c == nil {
		t.Logf("baseline %s has no \"cluster\" record; re-run scripts/bench.sh to gate the shard fleet", path)
	} else {
		var rps1 float64
		replications, replicaHits := 0.0, 0.0
		for _, p := range c.Points {
			t.Logf("cluster %d shards: cold %.0f req/s, warm %.0f req/s, replications %.0f, replica hits %.0f (%s)",
				p.Shards, p.Cold.RPS, p.Warm.RPS,
				p.RouterStats.Cluster.Replications, p.RouterStats.Cluster.ReplicaHits, path)
			if p.Cold.Errors > 0 || p.Warm.Errors > 0 {
				t.Errorf("cluster %d-shard point recorded errors (cold %d, warm %d) (%s)",
					p.Shards, p.Cold.Errors, p.Warm.Errors, path)
			}
			if p.Shards == 1 {
				rps1 = p.Cold.RPS
			}
			if p.Shards > 1 && rps1 > 0 && p.Cold.RPS < 0.5*rps1 {
				t.Errorf("cluster %d-shard cold throughput %.0f req/s collapsed below half the 1-shard %.0f req/s (%s)",
					p.Shards, p.Cold.RPS, rps1, path)
			}
			replications += p.RouterStats.Cluster.Replications
			replicaHits += p.RouterStats.Cluster.ReplicaHits
		}
		if c.CPUs >= 4 {
			t.Logf("cluster cold scaling 4-shard/1-shard: %.2fx on %d CPUs (%s)", c.ColdScaling4x, c.CPUs, path)
			if c.ColdScaling4x < 3 {
				t.Errorf("cluster 4-shard cold scaling %.2fx is below the 3x floor on a %d-CPU host (%s)",
					c.ColdScaling4x, c.CPUs, path)
			}
		} else {
			t.Logf("cluster scaling floor not binding: recorded on %d CPUs (<4); structural checks only (%s)", c.CPUs, path)
		}
		if replications == 0 {
			t.Errorf("no cluster sweep point recorded a completed hot-key replication (%s)", path)
		}
		if replicaHits == 0 {
			t.Errorf("no cluster sweep point recorded warm reads served by a replica (%s)", path)
		}
	}
}
