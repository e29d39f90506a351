package obs

import (
	"sort"
	"sync"
	"time"
)

// endpointWindow is the number of recent latency samples an EndpointMetrics
// retains for percentile estimation. A bounded ring keeps the serving
// layer's per-request overhead constant: counters are exact over the whole
// lifetime, percentiles describe the most recent window.
const endpointWindow = 4096

// EndpointMetrics accumulates request counts and latencies for one HTTP
// endpoint of the serving layer. It is safe for concurrent use; the zero
// value is ready.
type EndpointMetrics struct {
	mu         sync.Mutex
	count      uint64
	errors     uint64
	totalNanos int64
	maxNanos   int64
	ring       [endpointWindow]int64
	ringLen    int
	ringPos    int
}

// Observe records one request's latency and whether it failed (any non-2xx
// response counts as an error from the serving layer's point of view).
func (m *EndpointMetrics) Observe(d time.Duration, isErr bool) {
	ns := d.Nanoseconds()
	m.mu.Lock()
	m.count++
	if isErr {
		m.errors++
	}
	m.totalNanos += ns
	if ns > m.maxNanos {
		m.maxNanos = ns
	}
	m.ring[m.ringPos] = ns
	m.ringPos = (m.ringPos + 1) % endpointWindow
	if m.ringLen < endpointWindow {
		m.ringLen++
	}
	m.mu.Unlock()
}

// EndpointSnapshot is the JSON form of one endpoint's metrics, surfaced by
// the server's /v1/stats.
type EndpointSnapshot struct {
	Count    uint64 `json:"count"`
	Errors   uint64 `json:"errors"`
	AvgNanos int64  `json:"avg_nanos"`
	P50Nanos int64  `json:"p50_nanos"`
	P95Nanos int64  `json:"p95_nanos"`
	P99Nanos int64  `json:"p99_nanos"`
	MaxNanos int64  `json:"max_nanos"`
}

// Snapshot returns the current counters and latency percentiles (over the
// retained window).
func (m *EndpointMetrics) Snapshot() EndpointSnapshot {
	m.mu.Lock()
	s := EndpointSnapshot{Count: m.count, Errors: m.errors, MaxNanos: m.maxNanos}
	lat := make([]int64, m.ringLen)
	copy(lat, m.ring[:m.ringLen])
	if m.count > 0 {
		s.AvgNanos = m.totalNanos / int64(m.count)
	}
	m.mu.Unlock()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.P50Nanos = percentile(lat, 50)
		s.P95Nanos = percentile(lat, 95)
		s.P99Nanos = percentile(lat, 99)
	}
	return s
}
