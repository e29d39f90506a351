package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"localadvice/internal/server"
)

// cmdLoadgen drives a running `locad serve` instance with /v1/decode
// traffic in two phases — cold (per-request cache bypass, the full
// parse/encode/compile/decode pipeline every time) and warm (cache on, the
// steady-state serving path) — and reports throughput and latency
// percentiles for each, plus their ratio. With -json the report is a single
// JSON object that includes a /v1/stats scrape from the server; the serve
// smoke test (scripts/serve_smoke.sh) checks its fields.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "address of a running locad serve")
	schema := fs.String("schema", "mis", "advice schema to decode")
	family := fs.String("graph", "cycle", "graph family of the workload")
	n := fs.Int("n", 64, "graph size")
	seed := fs.Int64("seed", 1, "graph seed")
	concurrency := fs.Int("concurrency", 8, "concurrent request loops")
	duration := fs.Duration("duration", 2*time.Second, "wall-clock length of each phase")
	jsonOut := fs.Bool("json", false, "emit the report as JSON on stdout")
	batch := fs.Bool("batch", false, "add a binary /v1/batch phase (warm) to the run")
	batchSize := fs.Int("batch-size", 256, "decode requests per batch frame")
	probe := fs.Bool("probe", false, "send ONE warm decode and report its server-side latency, labels and a /v1/stats scrape (restart recovery), then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := "http://" + *addr
	client := newLoadgenClient()

	if *probe {
		return runProbe(client, base, *schema, *family, *n, *seed)
	}

	type decodeReq struct {
		Schema string `json:"schema"`
		Graph  struct {
			Family string `json:"family"`
			N      int    `json:"n"`
			Seed   int64  `json:"seed"`
		} `json:"graph"`
		Cache bool `json:"cache"`
	}
	makeBody := func(cached bool) []byte {
		var req decodeReq
		req.Schema = *schema
		req.Graph.Family = *family
		req.Graph.N = *n
		req.Graph.Seed = *seed
		req.Cache = cached
		b, _ := json.Marshal(req)
		return b
	}

	// One priming request up front: fail fast on a bad schema/graph/addr
	// instead of reporting a phase full of errors.
	if _, err := postOnce(client, base+"/v1/decode", makeBody(true)); err != nil {
		return fmt.Errorf("priming request: %w", err)
	}

	cold, err := runPhase(client, base+"/v1/decode", makeBody(false), *concurrency, *duration)
	if err != nil {
		return err
	}
	warm, err := runPhase(client, base+"/v1/decode", makeBody(true), *concurrency, *duration)
	if err != nil {
		return err
	}

	ratio := 0.0
	if cold.RPS > 0 {
		ratio = warm.RPS / cold.RPS
	}

	var batchRep *batchReport
	if *batch {
		rep, err := runBatchPhase(client, base, *schema, *family, *n, *seed, *batchSize, *concurrency, *duration)
		if err != nil {
			return err
		}
		batchRep = &rep
	}

	if *jsonOut {
		report := map[string]any{
			"addr":               *addr,
			"schema":             *schema,
			"graph":              map[string]any{"family": *family, "n": *n, "seed": *seed},
			"concurrency":        *concurrency,
			"phase_seconds":      duration.Seconds(),
			"cold":               cold,
			"warm":               warm,
			"warm_over_cold_rps": ratio,
		}
		if batchRep != nil {
			report["batch"] = batchRep
		}
		if stats, err := scrapeStats(client, base); err == nil {
			report["stats"] = stats
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	fmt.Printf("loadgen %s schema=%s graph=%s n=%d concurrency=%d phase=%s\n",
		*addr, *schema, *family, *n, *concurrency, *duration)
	for _, p := range []struct {
		name string
		r    phaseReport
	}{{"cold", cold}, {"warm", warm}} {
		fmt.Printf("  %-4s %8.1f req/s  p50 %-10s p95 %-10s p99 %-10s (%d ok, %d errors)\n",
			p.name, p.r.RPS,
			time.Duration(p.r.P50Nanos), time.Duration(p.r.P95Nanos), time.Duration(p.r.P99Nanos),
			p.r.Requests-p.r.Errors, p.r.Errors)
	}
	fmt.Printf("  warm/cold throughput: %.1fx\n", ratio)
	if batchRep != nil {
		fmt.Printf("  batch %8.1f frames/s  %10.0f items/s  (size %d, %d errors)\n",
			batchRep.RPS, batchRep.ItemsPerSecond, batchRep.BatchSize, batchRep.Errors)
	}
	return nil
}

// newLoadgenClient builds the shared benchmark client. The default
// transport keeps only 2 idle connections per host, so at concurrency 8+
// most requests open a fresh TCP connection, piling up TIME_WAIT sockets
// until high-rate runs exhaust ephemeral ports and understate throughput.
// Keeping one idle connection per loop (and skipping gzip, which the server
// never negotiates for these tiny JSON bodies) makes every lane reuse its
// connection.
func newLoadgenClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			DisableCompression:  true,
		},
	}
}

// batchReport is the phaseReport of a binary /v1/batch phase plus the
// per-item throughput (the ISSUE's >= 100k warm decode req/s target reads
// off ItemsPerSecond).
type batchReport struct {
	phaseReport
	BatchSize      int     `json:"batch_size"`
	ItemsPerSecond float64 `json:"items_per_second"`
}

// runBatchPhase hammers /v1/batch with one pre-encoded binary frame of
// batchSize server-advice decode requests.
func runBatchPhase(client *http.Client, base, schema, family string, n int, seed int64, batchSize, concurrency int, d time.Duration) (batchReport, error) {
	body, err := server.EncodeBatchRequest(schema,
		server.GraphSpec{Family: family, N: n, Seed: seed},
		true, make([]server.BatchItem, batchSize))
	if err != nil {
		return batchReport{}, err
	}
	// Priming request: fail fast and surface in-band item errors.
	resp, err := client.Post(base+"/v1/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return batchReport{}, fmt.Errorf("priming batch: %w", err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return batchReport{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return batchReport{}, fmt.Errorf("priming batch: HTTP %d: %s", resp.StatusCode, frame)
	}
	results, err := server.DecodeBatchResponse(frame)
	if err != nil {
		return batchReport{}, fmt.Errorf("priming batch: %w", err)
	}
	for i, r := range results {
		if r.Err != "" {
			return batchReport{}, fmt.Errorf("priming batch: item %d: %s", i, r.Err)
		}
	}
	phase, err := runPhase(client, base+"/v1/batch", body, concurrency, d)
	if err != nil {
		return batchReport{}, err
	}
	return batchReport{
		phaseReport:    phase,
		BatchSize:      batchSize,
		ItemsPerSecond: phase.RPS * float64(batchSize),
	}, nil
}

// runProbe sends ONE warm decode and reports its server-side
// elapsed_nanos, its labels and a /v1/stats scrape. On a server just
// restarted on a -store-dir the decode is served from the store, so the
// scrape's engine_computes stays 0. Labels are emitted comma-joined on one
// line so the smoke test can diff them across a restart with grep.
func runProbe(client *http.Client, base, schema, family string, n int, seed int64) error {
	body := fmt.Sprintf(`{"schema":%q,"graph":{"family":%q,"n":%d,"seed":%d},"cache":true}`,
		schema, family, n, seed)
	resp, err := client.Post(base+"/v1/decode", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("decode: HTTP %d: %s", resp.StatusCode, data)
	}
	var dr struct {
		Labels      []int `json:"labels"`
		ElapsedNano int64 `json:"elapsed_nanos"`
	}
	if err := json.Unmarshal(data, &dr); err != nil {
		return err
	}
	parts := make([]string, len(dr.Labels))
	for i, l := range dr.Labels {
		parts[i] = fmt.Sprint(l)
	}
	report := map[string]any{
		"schema":             schema,
		"graph":              map[string]any{"family": family, "n": n, "seed": seed},
		"first_decode_nanos": dr.ElapsedNano,
		"labels":             strings.Join(parts, ","),
	}
	if raw, err := scrapeStats(client, base); err == nil {
		report["stats"] = raw
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// phaseReport summarizes one loadgen phase.
type phaseReport struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Shed     int     `json:"shed"`
	RPS      float64 `json:"rps"`
	AvgNanos int64   `json:"avg_nanos"`
	P50Nanos int64   `json:"p50_nanos"`
	P95Nanos int64   `json:"p95_nanos"`
	P99Nanos int64   `json:"p99_nanos"`
}

// runPhase hammers url with identical POST bodies from `concurrency` loops
// for the given wall-clock duration. 429 responses are counted as shed, not
// errors: they are the server's bounded pool doing its job.
func runPhase(client *http.Client, url string, body []byte, concurrency int, d time.Duration) (phaseReport, error) {
	deadline := time.Now().Add(d)
	type lane struct {
		lat    []int64
		errors int
		shed   int
		err    error
	}
	lanes := make([]lane, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				status, err := postOnce(client, url, body)
				if err != nil {
					ln.err = err
					return
				}
				switch {
				case status == http.StatusTooManyRequests:
					ln.shed++
					continue
				case status != http.StatusOK:
					ln.errors++
					continue
				}
				ln.lat = append(ln.lat, time.Since(start).Nanoseconds())
			}
		}(&lanes[i])
	}
	wg.Wait()

	var all []int64
	rep := phaseReport{}
	for i := range lanes {
		if lanes[i].err != nil {
			return rep, lanes[i].err
		}
		all = append(all, lanes[i].lat...)
		rep.Errors += lanes[i].errors
		rep.Shed += lanes[i].shed
	}
	rep.Requests = len(all) + rep.Errors
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		var sum int64
		for _, v := range all {
			sum += v
		}
		rep.AvgNanos = sum / int64(len(all))
		rep.P50Nanos = pctl(all, 50)
		rep.P95Nanos = pctl(all, 95)
		rep.P99Nanos = pctl(all, 99)
		if d > 0 {
			// A zero-duration phase must report 0, not +Inf: the JSON
			// encoder rejects Inf.
			rep.RPS = float64(len(all)) / d.Seconds()
		}
	}
	return rep, nil
}

// pctl reads the p-th percentile of a sorted sample.
func pctl(sorted []int64, p int) int64 {
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// postOnce sends one JSON POST and returns the HTTP status. The body is
// drained so the client can reuse the connection.
func postOnce(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// scrapeStats fetches /v1/stats as raw JSON for embedding in the report.
func scrapeStats(client *http.Client, base string) (json.RawMessage, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return json.RawMessage(data), nil
}
