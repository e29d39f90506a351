package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"localadvice/internal/server"
)

// window brackets a timed phase with /v1/stats scrapes of the server.
type window struct {
	before, after server.StatsResponse
}

func openWindow(c *http.Client, srv *serverProc) (*window, error) {
	w := &window{}
	var err error
	w.before, err = srv.stats(c)
	return w, err
}

func (w *window) close(c *http.Client, srv *serverProc) error {
	var err error
	w.after, err = srv.stats(c)
	return err
}

// counters are the server-side exact counts of a window.
func (w *window) counters() map[string]int64 {
	a, b := w.after, w.before
	var puts, loads int64
	if a.Store != nil && b.Store != nil {
		puts = int64(a.Store.Puts - b.Store.Puts)
		loads = int64(a.Store.Hits - b.Store.Hits)
	}
	return map[string]int64{
		"cache.computes":  int64(a.Cache.Computes - b.Cache.Computes),
		"persist.puts":    puts,
		"persist.loads":   loads,
		"engine_computes": int64(a.Engine - b.Engine),
	}
}

// layerMetrics fills the per-layer metrics the server's public counters
// give for a window of requests requests, the handler percentiles read
// from endpoint, and the driver's CPU per request.
func (w *window) layerMetrics(m metricSet, requests int, endpoint string, driverCPU time.Duration) {
	a, b := w.after, w.before
	n := float64(max(requests, 1))
	ep := a.Endpoints[endpoint]
	m["server.handler_p50_ms"] = float64(ep.P50Nanos) / 1e6
	m["server.handler_p99_ms"] = float64(ep.P99Nanos) / 1e6
	m["driver.cpu_ms_per_req"] = ms(driverCPU) / n
	m["server.shed"] = float64(a.Shed - b.Shed)
	if dc := a.Engine - b.Engine; dc > 0 {
		m["server.engine_ms_per_artifact"] = float64(a.EngineNanos-b.EngineNanos) / 1e6 / float64(dc)
	}
	hits := float64(a.Cache.Hits + a.Cache.Dedups - b.Cache.Hits - b.Cache.Dedups)
	if total := hits + float64(a.Cache.Misses-b.Cache.Misses); total > 0 {
		m["cache.hit_ratio"] = hits / total
	}
	m["cache.computes"] = float64(a.Cache.Computes - b.Cache.Computes)
	m["cache.evictions"] = float64(a.Cache.Evictions - b.Cache.Evictions)
	if a.Store != nil && b.Store != nil {
		puts := float64(a.Store.Puts - b.Store.Puts)
		gets := float64(a.Store.Hits + a.Store.Misses - b.Store.Hits - b.Store.Misses)
		m["persist.puts"] = puts
		m["persist.loads"] = float64(a.Store.Hits - b.Store.Hits)
		m["persist.bytes_written"] = float64(a.Store.BytesWritten - b.Store.BytesWritten)
		if puts > 0 {
			m["persist.put_us"] = float64(a.Store.PutNanos-b.Store.PutNanos) / 1e3 / puts
		}
		if gets > 0 {
			m["persist.load_us"] = float64(a.Store.LoadNanos-b.Store.LoadNanos) / 1e3 / gets
		}
	}
}

// servingResult turns a timed phase into the result skeleton shared by
// the serving workloads: rates, latencies and peak RSS from the untraced
// rounds, the server's CPU time per request over every round (tracing is
// client-side, so traced rounds cost the server the same),
// attempt counts from every round, and the exact counters of round 0
// checked against the window total. Failed warm-up requests make the run
// incorrect.
func servingResult(ph *phaseResult, w *window, round0 map[string]int64, warmFailed int) *result {
	rounds := len(ph.rounds)
	res := &result{m: metricSet{}, info: map[string]any{}, wrong: warmFailed}
	ph.metrics(res.m, false)
	var lat int
	for _, r := range ph.rounds {
		res.attempted += r.ok + r.failed
		res.failed += r.failed
		lat += len(r.lat)
	}
	res.m["cpu_ms_per_req"] = ph.cpuPerReq()
	res.info["rounds"] = rounds
	res.info["latency_samples"] = lat
	res.info["highest_supported_percentile"] = highestSupported(lat)
	round0["requests"] = int64(ph.rounds[0].ok + ph.rounds[0].failed)
	res.exact = round0
	total := w.counters()
	for k, v := range total {
		if v != round0[k]*int64(rounds) {
			res.info["exact_round_mismatch"] = k
			res.wrong++
		}
	}
	return res
}

// overhead reports how much tracing moved key between the untraced and the
// traced rounds of a traced run, as a percentage of the untraced value.
func overhead(m metricSet, ph *phaseResult, key string) {
	plain, traced := metricSet{}, metricSet{}
	ph.metrics(plain, false)
	ph.metrics(traced, true)
	if plain[key] != 0 {
		m["trace.overhead_pct"] = 100 * (traced[key] - plain[key]) / plain[key]
	}
}

// attribution fills the client-versus-handler split: how much of the
// client's median latency the handler accounts for, and how much the
// replayed layers (layersMs per request) account for.
func attribution(m metricSet, clientP50, layersMs float64) {
	gap := clientP50 - m["server.handler_p50_ms"]
	m["server.gap_p50_ms"] = gap
	m["attr.layers_ms"] = layersMs
	m["attr.unattributed_ms"] = clientP50 - layersMs
	if clientP50 > 0 {
		m["server.gap_share"] = gap / clientP50
		m["attr.unattributed_share"] = (clientP50 - layersMs) / clientP50
	}
}

// preflight sends each probe to a throwaway server (short deadline) and
// reports which answered 200 and passed their check. The server is killed
// afterwards, so timed-out computations die with it.
func preflight(e *env, opts serverOpts, probes []*request) ([]bool, error) {
	opts.timeout = 3 * time.Second
	srv, err := startServer(e.locad, opts)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c := newClient(e.conns)
	pass := make([]bool, len(probes))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < e.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rq := probes[i]
				status, body, err := post(c, srv.base+rq.path, rq.ctype, rq.body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %.160s", status, body)
				}
				if err == nil {
					err = rq.check(body)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: pre-flight drops probe %d (%s): %v\n", i, rq.path, err)
					continue
				}
				pass[i] = true
			}
		}()
	}
	for i := range probes {
		next <- i
	}
	close(next)
	wg.Wait()
	return pass, nil
}

// warm sends reqs once each over conns connections and fails on the first
// error: warm-up traffic is part of set-up and must succeed.
func warm(c *http.Client, base string, reqs []*request, conns int) error {
	split := make([][]*request, conns)
	for i, rq := range reqs {
		split[i%conns] = append(split[i%conns], rq)
	}
	var seq int64
	res := runRound(c, base, split, nil, &seq)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %s", res.firstFail)
	}
	return nil
}
