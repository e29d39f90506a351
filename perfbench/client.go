package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// request is one HTTP call of a workload's seeded request stream.
type request struct {
	path  string // e.g. "/v1/decode"
	ctype string
	body  []byte
	items int // decode or encode items the request carries
	// check verifies a 200 answer; a non-nil error counts the request as
	// failed.
	check func(body []byte) error
}

// roundResult is the outcome of one round (or of one segment of a round):
// every connection's share of its requests, sent closed-loop.
type roundResult struct {
	wall      time.Duration
	ok        int
	failed    int
	items     int
	lat       []time.Duration
	paths     []string // request path of each lat sample
	firstFail string
	traced    bool
	rssMB     []float64     // the measured process's RSS, sampled during the round
	cpu       time.Duration // the measured process's CPU time over the round
	ref       time.Duration // host speed: the mean calibration point around it
	// swall, slat and scpu are wall, lat and cpu scaled to the reference
	// host speed.
	swall, scpu time.Duration
	slat        []time.Duration
}

// scale fills the scaled times of a segment from its calibration.
func (r *roundResult) scale() {
	k := hostScale(r.ref)
	r.swall = time.Duration(float64(r.wall) * k)
	r.scpu = time.Duration(float64(r.cpu) * k)
	r.slat = make([]time.Duration, len(r.lat))
	for i, d := range r.lat {
		r.slat[i] = time.Duration(float64(d) * k)
	}
}

// merge appends segment s, taken after r's, to r. The merged host speed is
// the segments' mean weighted by wall time.
func (r *roundResult) merge(s roundResult) {
	if w := r.wall + s.wall; w > 0 {
		r.ref = time.Duration((float64(r.ref)*float64(r.wall) + float64(s.ref)*float64(s.wall)) / float64(w))
	}
	r.wall += s.wall
	r.swall += s.swall
	r.cpu += s.cpu
	r.scpu += s.scpu
	r.ok += s.ok
	r.failed += s.failed
	r.items += s.items
	r.lat = append(r.lat, s.lat...)
	r.slat = append(r.slat, s.slat...)
	r.paths = append(r.paths, s.paths...)
	r.rssMB = append(r.rssMB, s.rssMB...)
	if r.firstFail == "" {
		r.firstFail = s.firstFail
	}
}

// segments cuts a round's per-connection request lists into consecutive
// segments of at most per requests per connection (the whole round when
// per is 0). Every connection's requests keep their order.
func segments(conns [][]*request, per int) [][][]*request {
	longest := 0
	for _, l := range conns {
		longest = max(longest, len(l))
	}
	if per <= 0 || per >= longest {
		return [][][]*request{conns}
	}
	var out [][][]*request
	for lo := 0; lo < longest; lo += per {
		seg := make([][]*request, len(conns))
		for c, l := range conns {
			seg[c] = l[min(lo, len(l)):min(lo+per, len(l))]
		}
		out = append(out, seg)
	}
	return out
}

// runRound sends conns[c] over connection c, one request at a time per
// connection, and returns when every connection has finished. With a
// non-nil tracer every HTTP call is recorded as a span.
func runRound(c *http.Client, base string, conns [][]*request, tr *tracer, reqSeq *int64) roundResult {
	var mu sync.Mutex
	res := roundResult{traced: tr != nil}
	ids := make([]int64, len(conns))
	for i := range conns {
		ids[i] = *reqSeq
		*reqSeq += int64(len(conns[i]))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for ci, list := range conns {
		wg.Add(1)
		go func(ci int, list []*request) {
			defer wg.Done()
			lat := make([]time.Duration, 0, len(list))
			var paths []string
			var ok, failed, items int
			var firstFail string
			for i, rq := range list {
				id := tr.start("http "+rq.path, 0, ids[ci]+int64(i))
				t := time.Now()
				status, body, err := post(c, base+rq.path, rq.ctype, rq.body)
				d := time.Since(t)
				tr.end(id)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %.200s", status, body)
				}
				if err == nil {
					err = rq.check(body)
				}
				if err != nil {
					failed++
					if firstFail == "" {
						firstFail = fmt.Sprintf("%s: %v", rq.path, err)
					}
					continue
				}
				ok++
				items += rq.items
				lat = append(lat, d)
				paths = append(paths, rq.path)
			}
			mu.Lock()
			res.ok += ok
			res.failed += failed
			res.items += items
			res.lat = append(res.lat, lat...)
			res.paths = append(res.paths, paths...)
			if res.firstFail == "" {
				res.firstFail = firstFail
			}
			mu.Unlock()
		}(ci, list)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// phaseResult aggregates the timed rounds of a run.
type phaseResult struct {
	rounds []roundResult
	// driverCPU is this process's CPU time while rounds ran (not while
	// they were generated).
	driverCPU time.Duration
}

func (p *phaseResult) add(r roundResult) {
	p.rounds = append(p.rounds, r)
	if r.firstFail != "" {
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", r.firstFail)
	}
}

// p50 returns the median latency in ms of every timed round's verified
// requests to path (the server's endpoint window covers them all).
func (p *phaseResult) p50(path string) float64 {
	var lat []time.Duration
	for _, r := range p.rounds {
		for i, d := range r.lat {
			if r.paths[i] == path {
				lat = append(lat, d)
			}
		}
	}
	return percentile(sortedMs(lat), 50)
}

// metrics fills the metrics of the rounds that match traced. Every timing
// and rate is scaled to the reference host speed (swall, slat; see
// calib.go). The rates and the round time (exp_s) are the median over
// rounds of that round's figure: each round is the same fixed work. The
// median latency pools every scaled sample of the rounds. So does the p99
// when the pool leaves at least ten samples beyond it; with fewer samples
// the pooled p99 is one or two samples and moves with each, and the p99 is
// the median over rounds of each round's p99 (its slowest request, for
// rounds under 100 requests). The client.* metrics are the unscaled
// figures, per round and then the median over rounds. The peak RSS is the
// p95 of every RSS sample of the rounds, the level the process stays under
// 95% of the time: the instantaneous peak (VmHWM) is set by spikes of a few
// tens of milliseconds whose height depends on when the garbage collector
// ran, and varies twofold between rounds of the same work.
func (p *phaseResult) metrics(m metricSet, traced bool) {
	var rps, ips, walls, p99s, rawRps, rawP50s, rawP99s, refs, rss []float64
	var slat []time.Duration
	for _, r := range p.rounds {
		if r.traced != traced {
			continue
		}
		lat := sortedMs(r.lat)
		rawRps = append(rawRps, float64(r.ok)/r.wall.Seconds())
		rawP50s = append(rawP50s, median(lat))
		rawP99s = append(rawP99s, percentile(lat, 99))
		rps = append(rps, float64(r.ok)/r.swall.Seconds())
		ips = append(ips, float64(r.items)/r.swall.Seconds())
		walls = append(walls, r.swall.Seconds())
		slat = append(slat, r.slat...)
		p99s = append(p99s, percentile(sortedMs(r.slat), 99))
		refs = append(refs, ms(r.ref))
		rss = append(rss, r.rssMB...)
	}
	sort.Float64s(rss)
	pooled := sortedMs(slat)
	m["throughput_rps"] = median(rps)
	m["items_per_s"] = median(ips)
	m["exp_s"] = median(walls)
	m["latency_p50_ms"] = percentile(pooled, 50)
	m["latency_p99_ms"] = median(p99s)
	if highestSupported(len(pooled)) >= 99 {
		m["latency_p99_ms"] = percentile(pooled, 99)
	}
	m["client.throughput_rps"] = median(rawRps)
	m["client.latency_p50_ms"] = median(rawP50s)
	m["client.latency_p99_ms"] = median(rawP99s)
	m["host.ref_ms"] = median(refs)
	m["peak_rss_mb"] = percentile(rss, 95)
}

// cpuPerReq returns the measured process's CPU time per request over every
// round, each segment's share scaled by its calibration, in ms.
func (p *phaseResult) cpuPerReq() float64 {
	var cpu float64
	n := 0
	for _, r := range p.rounds {
		cpu += ms(r.scpu)
		n += r.ok + r.failed
	}
	return cpu / float64(max(n, 1))
}

// warmRounds sends untimed warm-up rounds (indices -100, -101, …) until
// seconds have passed and returns how many requests failed.
func warmRounds(c *http.Client, base string, gen func(r int) [][]*request, seconds float64) int {
	var seq int64
	failed := 0
	for r, warm := -100, time.Duration(0); warm.Seconds() < seconds; r-- {
		res := runRound(c, base, gen(r), nil, &seq)
		warm += res.wall
		failed += res.failed
		if res.firstFail != "" {
			fmt.Fprintln(os.Stderr, "perfbench: warm-up request failed:", res.firstFail)
		}
	}
	return failed
}

// runTimed sends timed rounds from index 0 until they have taken at least
// seconds of wall time and minReq requests (whole rounds only, so every
// round is the same fixed work). In a traced run even rounds are untraced
// and odd rounds traced, so the two halves see the same drift in host
// load. after, when set, runs untimed after each round. A round runs as
// consecutive segments of o.segment requests per connection (the host
// speed changes within seconds, so a long round is calibrated piecewise):
// each segment is bracketed by calibration points, and process pid's RSS
// and CPU time are read during it.
func runTimed(c *http.Client, base string, gen func(r int) [][]*request, o timedOpts) *phaseResult {
	ph := &phaseResult{}
	var seq int64 = 1
	var timed time.Duration
	sent := 0
	for r := 0; ; r++ {
		var t *tracer
		if o.tr != nil && r%2 == 1 {
			t = o.tr
		}
		res := roundResult{traced: t != nil}
		for _, seg := range segments(gen(r), o.segment) {
			var s roundResult
			ref := bracket(func() {
				rss := sampleRSS(o.pid)
				cpu, srv := selfCPU(), procCPU(o.pid)
				s = runRound(c, base, seg, t, &seq)
				s.cpu = procCPU(o.pid) - srv
				ph.driverCPU += selfCPU() - cpu
				s.rssMB = rss.finish()
			})
			s.ref = ref
			s.scale()
			res.merge(s)
		}
		ph.add(res)
		timed += res.wall
		sent += res.ok + res.failed
		if o.after != nil {
			o.after(r)
		}
		if timed.Seconds() >= o.seconds && sent >= o.minReq && (o.tr == nil || r%2 == 1) {
			return ph
		}
	}
}

// timedOpts configure runTimed.
type timedOpts struct {
	seconds float64 // timed seconds
	minReq  int
	tr      *tracer
	after   func(r int)
	pid     int // process whose RSS and CPU time are read
	segment int // requests per connection per calibrated segment; 0 = whole rounds
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repeatSetup runs setup n times, keeping the last result and releasing
// the others, and returns the median set-up time in seconds, each scaled
// to the reference host speed by its own calibration.
func repeatSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var keep T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var v T
		var err error
		var d time.Duration
		ref := bracket(func() {
			t := time.Now()
			v, err = setup()
			d = time.Since(t)
		})
		if err != nil {
			return keep, 0, err
		}
		times = append(times, d.Seconds()*hostScale(ref))
		if i < n-1 {
			release(v)
		} else {
			keep = v
		}
	}
	sort.Float64s(times)
	return keep, median(times), nil
}
