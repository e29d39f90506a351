package obs

import (
	"fmt"
	"sort"
	"time"
)

// Summary is the in-memory aggregate of one Collector: the per-experiment
// record the harness exports and scripts/bench.sh ingests. Rounds,
// Messages, Bytes and per-kind event totals are deterministic; the latency
// percentiles, throughput and allocator deltas are measurements of this
// machine and run.
type Summary struct {
	Runs     int   `json:"runs"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	// LogicalMessages/LogicalBytes total the simulated protocol's own
	// traffic for rounds recorded by a transport-accounting engine (the
	// frugal engine); zero everywhere else. When nonzero, Messages/Bytes
	// for those rounds are the skeleton transport actually paid.
	LogicalMessages int64            `json:"logical_messages,omitempty"`
	LogicalBytes    int64            `json:"logical_bytes,omitempty"`
	MaxActive       int              `json:"max_active_nodes"`
	WallNanos       int64            `json:"wall_nanos"`
	RoundP50Nanos   int64            `json:"round_p50_nanos"`
	RoundP95Nanos   int64            `json:"round_p95_nanos"`
	RoundMaxNanos   int64            `json:"round_max_nanos"`
	MsgsPerSec      float64          `json:"msgs_per_sec"`
	AllocBytes      uint64           `json:"alloc_bytes"`
	Mallocs         uint64           `json:"mallocs"`
	EventTotals     map[string]int64 `json:"event_totals,omitempty"`
}

// Summary aggregates everything recorded so far. The round-latency
// percentiles are computed over the WallNanos of every recorded round;
// MsgsPerSec is total messages over the Start..Stop window (0 without a
// closed window). Safe on a nil receiver (returns the zero Summary).
func (c *Collector) Summary() Summary {
	var s Summary
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Runs = c.runSeq
	s.Rounds = len(c.rounds)
	lat := make([]int64, 0, len(c.rounds))
	for _, r := range c.rounds {
		s.Messages += r.Messages
		s.Bytes += r.Bytes
		s.LogicalMessages += r.LogicalMessages
		s.LogicalBytes += r.LogicalBytes
		if r.ActiveNodes > s.MaxActive {
			s.MaxActive = r.ActiveNodes
		}
		lat = append(lat, r.WallNanos)
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.RoundP50Nanos = percentile(lat, 50)
		s.RoundP95Nanos = percentile(lat, 95)
		s.RoundMaxNanos = lat[len(lat)-1]
	}
	if c.started && c.stopped {
		s.WallNanos = c.stopWall.Sub(c.startWall).Nanoseconds()
		s.AllocBytes = c.allocBytes
		s.Mallocs = c.mallocs
		if s.WallNanos > 0 {
			s.MsgsPerSec = float64(s.Messages) / (float64(s.WallNanos) / float64(time.Second))
		}
	}
	if len(c.events) > 0 {
		s.EventTotals = make(map[string]int64)
		for _, e := range c.events {
			s.EventTotals[e.Kind] += e.Value
		}
	}
	return s
}

// percentile returns the p-th percentile of a sorted latency slice using
// the nearest-rank method.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders the one-line human form printed by the locad CLI.
func (s Summary) String() string {
	return fmt.Sprintf("runs=%d rounds=%d messages=%d bytes=%d max_active=%d wall=%s p50=%s p95=%s max=%s msgs/s=%.0f allocs=%dB/%d",
		s.Runs, s.Rounds, s.Messages, s.Bytes, s.MaxActive,
		time.Duration(s.WallNanos), time.Duration(s.RoundP50Nanos),
		time.Duration(s.RoundP95Nanos), time.Duration(s.RoundMaxNanos),
		s.MsgsPerSec, s.AllocBytes, s.Mallocs)
}
