package main

import "strconv"

// This file is the benchmark's metric registry: every metric the benchmark
// can print, with its unit and, for per-layer metrics, the end-to-end metric
// it should move and the workload that exercises it. BENCHMARK.json lists the
// same names; the registry is what the self-tests check them against.

// Workload names, as passed to --workload.
const (
	wlHotDecode = "hot-decode"
	wlNewGraphs = "new-graphs"
	wlBatch     = "batch-decompress"
	wlExp       = "exp-tables"
)

var workloadNames = []string{wlHotDecode, wlNewGraphs, wlBatch, wlExp}

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves names the end-to-end metric a gain in this per-layer metric
	// should move ("none" for the benchmark's own health metrics).
	Moves string
	// On names the workload whose traced run measures the layer; on the
	// other workloads the layer does no work and the metric reads 0.
	On string
}

// endToEnd are printed by every untraced run, on every workload. A request
// is one HTTP call (a /v1/batch frame counts as one request) and, on
// exp-tables, one regeneration of the twelve tables; items are decode or
// encode items (16 per batch frame) or, on exp-tables, table rows. exp_s is
// the time of one round, the run's fixed unit of work: one regeneration on
// exp-tables, one seeded request round elsewhere. cpu_ms_per_req is the
// CPU time of the process doing the work (the server, or the benchmark
// process itself on exp-tables) per request. Every time, rate and latency
// here is scaled to the reference host speed by the calibration around the
// work it measures (calib.go): on a shared host, unscaled figures of the
// same code move by a third between runs. The unscaled figures are the
// per-layer client.* metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "throughput_rps", Unit: "req/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "items_per_s", Unit: "items/s", Better: "higher"},
	{Name: "exp_s", Unit: "s", Better: "lower"},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

const serving = "hot-decode,new-graphs,batch-decompress"

// perLayer are printed by every traced run.
var perLayer = []metricDef{
	{"client.throughput_rps", "req/s", "higher", "none", "all"},
	{"client.latency_p50_ms", "ms", "lower", "none", "all"},
	{"client.latency_p99_ms", "ms", "lower", "none", "all"},
	{"host.ref_ms", "ms", "lower", "none", "all"},
	{"server.handler_p50_ms", "ms", "lower", "latency_p50_ms", serving},
	{"server.handler_p99_ms", "ms", "lower", "latency_p99_ms", serving},
	{"server.gap_p50_ms", "ms", "lower", "latency_p50_ms", serving},
	{"server.gap_share", "fraction", "lower", "latency_p50_ms", serving},
	{"server.json_encode_us", "us", "lower", "latency_p50_ms", wlHotDecode},
	{"server.advice_digest_us", "us", "lower", "latency_p50_ms", wlHotDecode},
	{"server.engine_ms_per_artifact", "ms", "lower", "latency_p50_ms", wlNewGraphs},
	{"server.shed", "count", "lower", "fail_ratio", serving},
	{"cache.hit_ratio", "fraction", "higher", "throughput_rps", wlNewGraphs},
	{"cache.computes", "count", "lower", "latency_p99_ms", wlNewGraphs},
	{"cache.evictions", "count", "lower", "latency_p99_ms", wlNewGraphs},
	{"cache.do_hit_us", "us", "lower", "latency_p50_ms", wlHotDecode},
	{"persist.puts", "count", "lower", "latency_p50_ms", wlNewGraphs},
	{"persist.put_us", "us", "lower", "latency_p50_ms", wlNewGraphs},
	{"persist.loads", "count", "lower", "latency_p99_ms", wlNewGraphs},
	{"persist.load_us", "us", "lower", "latency_p99_ms", wlNewGraphs},
	{"persist.bytes_written", "bytes", "lower", "latency_p50_ms", wlNewGraphs},
	{"persist.advice_decode_us", "us", "lower", "items_per_s", wlBatch},
	{"graph.parse_ms", "ms", "lower", "latency_p50_ms", wlNewGraphs},
	{"graph.digest_us", "us", "lower", "latency_p50_ms", wlNewGraphs},
	{"graph.snapshot_us", "us", "lower", "latency_p50_ms", wlNewGraphs},
	{"encode.orient_ms", "ms", "lower", "latency_p50_ms", wlNewGraphs},
	{"encode.orientdet_ms", "ms", "lower", "latency_p99_ms", wlNewGraphs},
	{"encode.orientlll_ms", "ms", "lower", "latency_p50_ms", wlNewGraphs},
	{"encode.color3_ms", "ms", "lower", "latency_p99_ms", wlNewGraphs},
	{"encode.color3det_ms", "ms", "lower", "latency_p99_ms", wlNewGraphs},
	{"encode.color3lll_ms", "ms", "lower", "latency_p99_ms", wlNewGraphs},
	{"lll.evaluations", "count", "lower", "latency_p50_ms", wlNewGraphs},
	{"lll.resamplings", "count", "lower", "latency_p50_ms", wlNewGraphs},
	{"decode.orientlll_ms", "ms", "lower", "items_per_s", wlBatch},
	{"decode.color3lll_ms", "ms", "lower", "items_per_s", wlBatch},
	{"local.ball_views", "count", "lower", "items_per_s", wlBatch},
	{"local.rounds", "count", "lower", "items_per_s", wlBatch},
	{"eth.compile_ms", "ms", "lower", "items_per_s", wlBatch},
	{"eth.run_us", "us", "lower", "items_per_s", wlBatch},
	{"eth.table_entries", "count", "lower", "items_per_s", wlBatch},
	{"lcl.verify_ms", "ms", "lower", "items_per_s", wlBatch},
	{"batch.frame_encode_us", "us", "lower", "items_per_s", wlBatch},
	{"batch.frame_decode_us", "us", "lower", "items_per_s", wlBatch},
	{"batch.response_bytes", "bytes", "lower", "items_per_s", wlBatch},
	{"attr.layers_ms", "ms", "lower", "latency_p50_ms", serving},
	{"attr.unattributed_ms", "ms", "lower", "latency_p50_ms", serving},
	{"attr.unattributed_share", "fraction", "lower", "latency_p50_ms", serving},
	{"driver.cpu_ms_per_req", "ms", "lower", "none", serving},
	{"trace.overhead_pct", "%", "lower", "none", "all"},
	{"fail_ratio", "fraction", "lower", "none", "all"},
}

func init() {
	for i := 1; i <= 12; i++ {
		id := "E" + strconv.Itoa(i)
		perLayer = append(perLayer,
			metricDef{"exp." + id + "_s", "s", "lower", "exp_s", wlExp},
			metricDef{"exp." + id + "_alloc_mb", "MiB", "lower", "peak_rss_mb", wlExp})
	}
}

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

// output renders the metrics of defs in the printed {"value", "unit"} form.
// A metric the workload never set reads 0: its layer did no work there.
func (m metricSet) output(defs []metricDef) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.Name] = map[string]any{"value": m[d.Name], "unit": d.Unit}
	}
	return out
}
